"""The algoeff command line.

Subcommands cover the whole pipeline: per-image operation counts
(flops, shapes), learning-curve analysis (analyze), record comparison
(factor, decompose, doubling), and trend summaries (frontier, trend,
effective, report). Output is a table in csv, json or markdown, chosen
with --format; compute totals display in raw flops or one of two
scaled units via --unit.

Exit codes: 0 on success, 1 for usage errors, 2 for unreadable or
invalid inputs, 3 when a curve never reaches the requested threshold.

main pauses the cyclic garbage collector for the command and restores
it afterwards; the library functions it calls leave the collector alone.

Importing this module executes algoeff.archflops and algoeff.reports,
but not algoeff.curves, algoeff.trends or algoeff.datasets: those are
registered through importlib's LazyLoader and execute on first
attribute access, so flops, shapes and --help never run them. The
handlers and reports reach their names as curves.X, trends.X and
datasets.X at call time; main's except clauses name root classes only.
LazyLoader takes no lock on first use before Python 3.13, so main is a
one-thread entry point: two threads touching a deferred module first at
once can see it half executed. Other importers get ordinary modules.
"""
from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import os
import shutil
import sys
from pathlib import Path

from . import BACKWARD_MULTIPLIER, IMAGES_PER_EPOCH, UNIT_DIVISORS, InputError, ResultError
from .archflops import (
    ArchitectureSpec,
    CountingConvention,
    FlopCount,
    GraphError,
    TensorShape,
    arch_from_json,
    builtin_arch,
    count_flops,
)
from .archflops.counting import UNITS as COUNT_UNITS
from .archflops.zoo import _normalize


def _lazy(name: str):
    """The submodule algoeff.<name>, executed on first attribute access.

    The importlib docs' LazyLoader recipe. The module sits in sys.modules
    and on the package at once, so `from . import name` and a lookup in
    sys.modules find it without executing it. A module already imported
    is returned as it is.
    """
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


# Before reports is imported, so that its `from . import curves, trends` binds these.
curves, datasets, trends = _lazy("curves"), _lazy("datasets"), _lazy("trends")

from .reports import (  # noqa: E402
    FORMATS,
    Table,
    analysis_table,
    compute_table,
    curve_points,
    decomposition_table,
    doubling_table,
    efficiency_table,
    effective_compute_points,
    effective_table,
    factor_doubling_table,
    factor_table,
    flops_tables,
    frontier_points,
    frontier_table,
    pair_doubling_table,
    render,
    shapes_table,
    table_warnings,
    trend_table,
)


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage problems must be 1
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _float(text: str) -> float:
    """A float flag's value, or a threshold's: float() of ASCII text with no "_".

    float() alone also reads "_" separators and non-ASCII digits; anything
    else gets argparse's own usage error, "invalid float value: '1_0'".
    """
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


@functools.cache  # parse_args keeps no state between calls, so one parser serves them all
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="algoeff",
        description="Analytic training-compute accounting for image classifiers.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def graph(p):
        p.add_argument("arch", help="bundled architecture name, or a path to a graph "
                                    "json file (anything containing / or ending in .json)")
        p.add_argument("--input", default=None, metavar="CxHxW",
                       help="override the graph's default input shape")

    scaled = [f"{u} (raw / {d:g})".replace("e+", "e")
              for u, d in UNIT_DIVISORS.items() if d != 1.0]
    unit_help = (f"display unit for compute totals: raw flops, {', '.join(scaled[:-1])} "
                 f"or {scaled[-1]}; default %(default)s")

    def common(p, handler, unit=False, records=False):
        p.set_defaults(handler=handler)
        if records:
            p.add_argument("--records", default=None, metavar="FILE",
                           help="records json (default: bundled image classification records)")
        p.add_argument("--format", choices=FORMATS, default="markdown",
                       help="output format (default markdown)")
        if unit:
            p.add_argument("--unit", choices=sorted(UNIT_DIVISORS), default="table",
                           help=unit_help)

    p = sub.add_parser("flops", help="per-image operation count of an architecture")
    graph(p)
    p.add_argument("--count-unit", choices=COUNT_UNITS, default=CountingConvention.unit,
                   help="mac counts multiply-accumulates; flop2 doubles them")
    p.add_argument("--include-bias", action="store_true",
                   help="charge one extra operation per output element of biased layers")
    p.add_argument("--counted-kinds", default=None, metavar="KIND[,KIND...]",
                   help="layer kinds to count (default conv2d,linear)")
    p.add_argument("--per-layer", action="store_true", help="also list every node")
    common(p, _cmd_flops)

    p = sub.add_parser("shapes", help="inferred output shape of every node")
    graph(p)
    common(p, _cmd_shapes)

    p = sub.add_parser("analyze", help="epochs and compute for a curve to reach a threshold")
    graph(p)
    p.add_argument("curve", help="curve csv path, or the name of a bundled curve")
    p.add_argument("--threshold", default="0.791", metavar="V|METRIC:V",
                   help="accuracy target, top5 unless written metric:value (default 0.791)")
    p.add_argument("--percent", action="store_true",
                   help="curve accuracies are percentages, not fractions")
    p.add_argument("--images-per-epoch", type=_float, default=IMAGES_PER_EPOCH)
    p.add_argument("--backward-multiplier", type=_float, default=BACKWARD_MULTIPLIER)
    p.add_argument("--name", default=None, help="record name (default: architecture name)")
    p.add_argument("--date", default=None, metavar="YYYY-MM-DD",
                   help="run date, required with --append-records")
    p.add_argument("--append-records", default=None, metavar="FILE",
                   help="append the result to a records json file (created if missing)")
    common(p, _cmd_analyze, unit=True)

    p = sub.add_parser("factor", help="efficiency factor between two records")
    p.add_argument("baseline")
    p.add_argument("improved")
    common(p, _cmd_factor, unit=True, records=True)

    p = sub.add_parser("decompose", help="split a factor into epoch and per-image terms")
    p.add_argument("baseline")
    p.add_argument("improved")
    common(p, _cmd_decompose, records=True)

    p = sub.add_parser(
        "doubling",
        help="efficiency doubling time from two records, an explicit factor, "
             "or the bundled cross-domain comparisons",
    )
    p.add_argument("baseline", nargs="?")
    p.add_argument("improved", nargs="?")
    p.add_argument("--factor", type=_float, default=None,
                   help="efficiency factor gained over --period")
    p.add_argument("--period", type=_float, default=None, help="elapsed time")
    p.add_argument("--period-unit", choices=("months", "days"), default="months")
    common(p, _cmd_doubling, records=True)

    p = sub.add_parser("frontier", help="records on the minimal-compute frontier")
    common(p, _cmd_frontier, unit=True, records=True)

    p = sub.add_parser("trend", help="fit the efficiency trend and its doubling time")
    p.add_argument("--method", choices=("regression", "endpoints"), default="regression")
    p.add_argument("--all-records", action="store_true",
                   help="fit through all records instead of the frontier")
    common(p, _cmd_trend, records=True)

    p = sub.add_parser("effective", help="combined multiplier of stacked gain factors")
    p.add_argument("factors", nargs="*", type=_float,
                   help="gain factors to multiply; none shows the default "
                        "hardware/spending/efficiency model")
    common(p, _cmd_effective)

    p = sub.add_parser("report", help="all summary tables at once")
    p.add_argument("--figures", action="store_true",
                   help="also emit plot-point series (bundled curves and records)")
    common(p, _cmd_report, unit=True, records=True)

    return parser


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _is_file(value: str, suffix: str) -> bool:
    """A graph or curve argument names a file when it has a / or the format's suffix."""
    return "/" in value or value.endswith(suffix)


def _parse_file(path: str, parse):
    """A user's file, read as UTF-8 and parsed; bad content raises InputError, led by the path."""
    try:
        with open(path, encoding="utf-8") as f:  # an OSError names path as given
            return parse(f.read())
    except (InputError, UnicodeDecodeError) as e:
        raise InputError(f"{path}: {e}") from None


def _load_arch(value: str) -> ArchitectureSpec:
    if _is_file(value, ".json"):
        return _parse_file(value, arch_from_json)
    return builtin_arch(value)


def _load_curve_arg(value: str, percent: bool):
    if _is_file(value, ".csv"):
        stem = Path(value).stem
        return _parse_file(value,
                           lambda text: curves.parse_curve(text, name=stem, percent=percent))
    names = datasets.curve_names()
    if value in names:
        if percent:
            raise curves.CurveError("bundled curves are stored as fractions; drop --percent")
        return datasets.load_curve(value)
    raise curves.CurveError(
        f"{value!r} is neither a readable csv path nor a bundled curve "
        f"(available: {', '.join(names)})"
    )


def _parse_threshold(text: str) -> curves.Threshold:
    metric, sep, value = text.partition(":")
    if not sep:
        metric, value = "top5", text
    try:
        v = _float(value)
    except argparse.ArgumentTypeError:
        raise curves.CurveError(
            f"threshold {text!r} is not a number or metric:value pair"
        ) from None
    return curves.Threshold(metric, v)


def _parse_input(value: str | None) -> TensorShape | None:
    return TensorShape.parse(value) if value else None


def _load_records(path: str | None) -> tuple[trends.EfficiencyRecord, ...]:
    if path is None:
        return datasets.load_imagenet_records()
    return _parse_file(path, trends.records_from_json)


def _replace_file(path: str, text: str):
    """Write text to path atomically: a temporary file beside it, then os.replace.

    A reader sees the old file or the new one, never a partial write, and
    a failure leaves the old file as it was and no temporary file behind.
    A symlink is followed, so the file it points at is the one replaced.
    """
    real = Path(os.path.realpath(path))
    tmp = real.with_name(f".{real.name}.{os.getpid()}.tmp")
    try:
        f = open(tmp, "x", encoding="utf-8")  # "x": never clobber another file
    except OSError as e:  # name the file as given, not its temporary
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        if real.exists():
            shutil.copymode(real, tmp)
        os.replace(tmp, real)
    except BaseException:
        tmp.unlink()
        raise


def _counting_convention(args) -> CountingConvention:
    kwargs = {"unit": args.count_unit, "include_bias": args.include_bias}
    if args.counted_kinds is not None:
        kwargs["counted_kinds"] = [k.strip() for k in args.counted_kinds.split(",") if k.strip()]
    return CountingConvention(**kwargs)


def _per_image_flops(arch: ArchitectureSpec, count: FlopCount) -> float:
    """The exact per-image count as a float, naming arch if it does not fit."""
    try:
        return count.per_image_float
    except GraphError as e:
        raise GraphError(f"{arch.name}: {e}") from None


def _record_pair(args) -> tuple[trends.EfficiencyRecord, trends.EfficiencyRecord]:
    records = _load_records(args.records)
    return trends.find_record(records, args.baseline), trends.find_record(records, args.improved)


# ---------------------------------------------------------------------------
# subcommand handlers, each returning a list of tables
# ---------------------------------------------------------------------------

def _cmd_flops(args) -> list[Table]:
    arch = _load_arch(args.arch)
    convention = _counting_convention(args)
    count = count_flops(arch, input_shape=_parse_input(args.input), convention=convention)
    return flops_tables(arch, count, _per_image_flops(arch, count), args.per_layer)


def _cmd_shapes(args) -> list[Table]:
    return [shapes_table(_load_arch(args.arch), _parse_input(args.input))]


def _cmd_analyze(args) -> list[Table]:
    arch = _load_arch(args.arch)
    curve = _load_curve_arg(args.curve, args.percent)
    threshold = _parse_threshold(args.threshold)
    per_image = _per_image_flops(arch, count_flops(arch, input_shape=_parse_input(args.input)))
    epoch = curves.epochs_to_threshold(curve, threshold)
    total = curves.compute_to_threshold(
        curve, threshold, flops_per_image=per_image,
        images_per_epoch=args.images_per_epoch,
        backward_multiplier=args.backward_multiplier,
    )
    table = analysis_table(arch, curve, threshold, epoch, per_image, total, args.unit)

    if args.append_records:
        if args.date is None:
            raise UsageError("algoeff analyze: --append-records requires --date")
        run_date = trends.parse_date(args.date, "--date", trends.TrendError)
        name = arch.name if args.name is None else args.name
        path = args.append_records
        existing = _parse_file(path, trends.records_from_json) if os.path.exists(path) else ()
        if any(r.name == name for r in existing):
            raise trends.TrendError(f"record {name!r} already exists in {path}")
        if curve.cumulative_flops is not None:
            work = {"total_compute": total}
        else:
            work = {"flops_per_image": per_image, "epochs": float(epoch),
                    "images_per_epoch": args.images_per_epoch}
        new = trends.EfficiencyRecord(name=name, date=run_date, threshold=threshold,
                                      backward_multiplier=args.backward_multiplier, **work)
        _replace_file(path, trends.records_to_json(list(existing) + [new]))
    return [table]


def _cmd_factor(args) -> list[Table]:
    return [factor_table(*_record_pair(args), args.unit)]


def _cmd_decompose(args) -> list[Table]:
    return [decomposition_table(*_record_pair(args))]


def _cmd_doubling(args) -> list[Table]:
    explicit = args.factor is not None or args.period is not None
    named = args.baseline is not None or args.improved is not None
    if explicit and named:
        raise UsageError("algoeff doubling: give record names or --factor/--period, not both")
    if explicit:
        if args.factor is None or args.period is None:
            raise UsageError("algoeff doubling: --factor and --period go together")
        return [factor_doubling_table(args.factor, args.period, args.period_unit)]
    if named:
        if args.improved is None:
            raise UsageError("algoeff doubling: need both BASELINE and IMPROVED")
        return [pair_doubling_table(*_record_pair(args))]
    return [doubling_table(datasets.load_cross_domain())]


def _cmd_frontier(args) -> list[Table]:
    return [frontier_table(trends.frontier(_load_records(args.records)), args.unit)]


def _cmd_trend(args) -> list[Table]:
    records = _load_records(args.records)
    source = records if args.all_records else trends.frontier(records)
    return [trend_table(trends.fit_trend(source, method=args.method))]


def _cmd_effective(args) -> list[Table]:
    return [effective_table(args.factors)]


def _cmd_report(args) -> list[Table]:
    records = _load_records(args.records)
    comparisons = datasets.load_cross_domain()
    reported = datasets.REPORTED_TERAFLOP_S_DAYS if args.records is None else None
    front = trends.frontier(records)
    tables = [
        efficiency_table(front),
        doubling_table(comparisons),
        compute_table(records, front, unit=args.unit, reported=reported),
    ]
    if args.figures:
        tables.append(frontier_points(records, front, unit=args.unit))
        bundled = records if args.records is None else datasets.load_imagenet_records()
        compute_curves = []
        for cname in datasets.curve_names():
            match = [r for r in bundled if _normalize(r.name) == _normalize(cname)]
            if match and match[0].flops_per_image is not None:
                compute_curves.append(curves.to_compute_curve(
                    datasets.load_curve(cname), flops_per_image=match[0].flops_per_image,
                ))
        tables.append(curve_points(compute_curves, unit=args.unit))
        tables.append(effective_compute_points())
    return tables


def main(argv: list[str] | None = None) -> int:
    # A command's data holds no reference cycles: parsed nodes, records and
    # table rows are freed by reference counting, so the cyclic collector
    # would only rescan them while they are alive. It is paused for the
    # command; the few cycles argparse's first parser build and json's
    # indented encoder leave are collected once it is restored.
    was = gc.isenabled()
    gc.disable()
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
            if args.command is None:
                raise UsageError("algoeff: a subcommand is required (see --help)")
            tables = args.handler(args)
        except UsageError as e:
            print(str(e), file=sys.stderr)
            return 1
        except ResultError as e:
            print(f"algoeff: {e}", file=sys.stderr)
            return 3
        except (InputError, OSError) as e:
            print(f"algoeff: {e}", file=sys.stderr)
            return 2

        sys.stdout.write(render(tables, args.format))
        if args.format == "csv":
            for w in table_warnings(tables):
                print(f"note: {w}", file=sys.stderr)
        return 0
    finally:
        if was:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
