"""Table builders, number formatting and the three renderers."""
import datetime
import json
import math
import platform
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algoeff.archflops import arch_from_json, infer_shapes
from algoeff.curves import ComputeCurve
from algoeff.datasets import REPORTED_TERAFLOP_S_DAYS, load_cross_domain, load_imagenet_records
from algoeff.reports import (
    FORMATS,
    Table,
    compute_table,
    curve_points,
    doubling_table,
    effective_compute_points,
    efficiency_table,
    fmt_compute,
    fmt_factor,
    frontier_points,
    render,
    render_csv,
    render_json,
    render_markdown,
    shapes_table,
    table_warnings,
)
from algoeff.trends import EfficiencyRecord, TrendError, frontier

from _generators import chain_graph_json, traced
from _oracles import json_oracle, markdown_oracle


FRONTIER_NAMES = ("AlexNet", "GoogLeNet", "MobileNet_v1", "ShuffleNet_v1_1x",
                  "ShuffleNet_v2_1x", "EfficientNet-b0")


@pytest.fixture(scope="module")
def records():
    return load_imagenet_records()


@pytest.fixture(scope="module")
def comparisons():
    return load_cross_domain()


@pytest.fixture(scope="module")
def front(records):
    return frontier(records)


def simple_record(name, date, total):
    return EfficiencyRecord(name=name, date=date, total_compute=total)


class TestFmtFactor:
    @pytest.mark.parametrize("value,expected", [
        (1.0, "1.0"),
        (2.0, "2.0"),
        (0.385, "0.38"),     # half to even on the decimal form
        (0.5, "0.50"),
        (0.791, "0.79"),
        (1.9744, "2.0"),
        (3.75, "3.8"),       # half to even rounds 7 up to 8
        (4.33125, "4.3"),
        (4.5, "4.5"),
        (5.5, "5.5"),
        (8.181818181818182, "8.2"),
        (11.0526, "11"),
        (11.25, "11"),
        (20.625, "21"),
        (22.5, "22"),        # half to even keeps 22
        (24.75, "25"),
        (44.42307692307692, "44"),
        (60.60606060606061, "61"),
        (99.0, "99"),
        (150.0, "150"),
        (1500.0, "1,500"),
        (123456.0, "120,000"),
        (0.0499, "0.050"),
    ])
    def test_cases(self, value, expected):
        assert fmt_factor(value) == expected

    def test_boundary_promotion(self):
        # 9.96 rounds up past ten, so the one-decimal rule still applies
        assert fmt_factor(9.96) == "10.0"

    def test_accepts_ints(self):
        assert fmt_factor(44) == "44"

    def test_rounding_past_the_largest_float_stays_finite(self):
        # 1.75e308 rounds to 1.8e308, which no float can hold
        assert fmt_factor(1.75e308) == "180," + ",".join(["000"] * 102)


class TestFmtCompute:
    def test_table_unit_fixed_point(self):
        assert fmt_compute(2.66112e17, "table") == "266.1"
        assert fmt_compute(5.9904e15, "table") == "6.0"

    def test_raw(self):
        assert fmt_compute(2.66112e17, "raw") == "2.661e+17"

    def test_stated(self):
        assert fmt_compute(8.64e16, "stated") == "1"

    def test_unknown_unit(self):
        with pytest.raises(TrendError, match="unknown unit"):
            fmt_compute(1.0, "petaflops")


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="sizes are CPython's allocations")
def test_shapes_table_reads_the_walk_in_place():
    # before, shapes_table read a copy of the walk's shape map
    arch = arch_from_json(chain_graph_json(12_500))  # the loader walks it
    one_map = sys.getsizeof(infer_shapes(arch))  # a copy is the size of the walk's map
    table, held, peak = traced(lambda: shapes_table(arch, None))
    assert len(table.rows) == len(arch.nodes) + 1 == 50_001
    # what is freed by the end: the shape texts and the rows tuple before the input row
    assert peak - held < 0.75 * one_map, (peak, held, one_map)


class TestTable:
    def test_row_width_enforced(self):
        with pytest.raises(ValueError, match="row width"):
            Table(key="k", title="t", columns=("a", "b"), rows=(("1",),))

    def test_good_table(self):
        t = Table(key="k", title="t", columns=("a",), rows=(("1",), ("2",)))
        assert t.warnings == ()


class TestEfficiencyTable:
    def test_bundled_rows(self, front):
        t = efficiency_table(front)
        assert t.key == "efficiency_factors"
        assert t.title == "Training efficiency factors relative to AlexNet"
        assert t.columns == ("model", "date", "epoch_reduction",
                             "per_image_reduction", "efficiency_factor")
        expected = [
            ("AlexNet", "2012-06-01", "1.0", "1.0", "1.0"),
            ("GoogLeNet", "2014-09-17", "11", "0.38", "4.3"),
            ("MobileNet_v1", "2017-04-17", "8.2", "1.4", "11"),
            ("ShuffleNet_v1_1x", "2017-07-04", "3.8", "5.5", "21"),
            ("ShuffleNet_v2_1x", "2018-07-30", "4.5", "5.5", "25"),
            ("EfficientNet-b0", "2019-05-28", "22", "2.0", "44"),
        ]
        assert list(t.rows) == expected
        assert t.warnings == ()

    def test_records_without_triples_leave_blank_terms(self):
        a = simple_record("a", datetime.date(2012, 1, 1), 4e17)
        b = simple_record("b", datetime.date(2013, 1, 1), 1e17)
        t = efficiency_table(frontier([a, b]))
        assert t.rows[1] == ("b", "2013-01-01", "", "", "4.0")


class TestDoublingTable:
    def test_shape(self, comparisons):
        t = doubling_table(comparisons)
        assert t.key == "doubling_times"
        assert len(t.columns) == 11
        assert len(t.rows) == 8

    def test_alexnet_row_cells(self, comparisons):
        t = doubling_table(comparisons)
        row = next(r for r in t.rows if r[2] == "AlexNet" and r[1] == "training")
        assert row[4] == "44"            # computed factor
        assert row[5] == "44"            # quoted factor
        assert row[6] == "84 months"     # elapsed from exact dates
        assert row[7] == "72 months"     # quoted period
        assert row[8] == "15 months"     # computed doubling
        assert row[9] == "16 months"     # quoted doubling
        assert row[10] == ""             # not estimated

    def test_dota_row_uses_days(self, comparisons):
        t = doubling_table(comparisons)
        row = next(r for r in t.rows if "Rerun" in r[3])
        assert row[6] == "60 days"
        assert row[8] == "25 days"
        assert row[9] == "25 days"
        assert row[10] == "yes"

    def test_reported_only_rows_echo_quotes(self, comparisons):
        t = doubling_table(comparisons)
        row = next(r for r in t.rows
                   if r[2] == "Resnet-50" and r[1] == "training")
        assert row[4] == "10"
        assert row[5] == "10"

    def test_expected_warnings(self, comparisons):
        t = doubling_table(comparisons)
        assert len(t.warnings) == 4
        joined = "\n".join(t.warnings)
        assert "AlexNet -> EfficientNet-b0: elapsed period 84 months" in joined
        assert "AlexNet -> EfficientNet-b0: computed doubling 15 months" in joined
        assert "Resnet-50 -> EfficientNet-b0: computed doubling 14 months" in joined
        assert "AlexNet -> ShuffleNet_v2_1x: computed doubling 14 months" in joined

    def test_expected_warnings_in_full(self, comparisons):
        assert doubling_table(comparisons).warnings == (
            "AlexNet -> EfficientNet-b0: elapsed period 84 months does not round to "
            "the quoted 72 months",
            "AlexNet -> EfficientNet-b0: computed doubling 15 months does not round to "
            "the quoted 16 months",
            "Resnet-50 -> EfficientNet-b0: computed doubling 14 months does not round to "
            "the quoted 17 months",
            "AlexNet -> ShuffleNet_v2_1x: computed doubling 14 months does not round to "
            "the quoted 15 months",
        )

    def test_consistent_quotes_produce_no_warning(self):
        comparisons = [c for c in load_cross_domain()
                       if c.baseline == "GNMT"]
        assert doubling_table(comparisons).warnings == ()

    def test_mismatched_factor_warns(self):
        from algoeff.datasets import CrossDomainComparison
        c = CrossDomainComparison(task="t", kind="training", baseline="a",
                                  improved="b", baseline_compute=9.0,
                                  improved_compute=1.0, period_value=12.0,
                                  reported_factor=4.0)
        t = doubling_table([c])
        assert any("computed factor 9.0 does not round to the quoted 4" in w
                   for w in t.warnings)

    def test_float_quoted_factor_cell_matches_its_note(self):
        from algoeff.datasets import CrossDomainComparison
        c = CrossDomainComparison(task="t", kind="training", baseline="a",
                                  improved="b", baseline_compute=9.0,
                                  improved_compute=1.0, period_value=12.0,
                                  reported_factor=4.0)
        t = doubling_table([c])
        assert t.rows[0][5] == "4"
        assert t.warnings == ("a -> b: computed factor 9.0 does not round to the quoted 4",)

    @pytest.mark.parametrize("period,quoted,warned", [
        ((90.0, "days"), (2, "months"), True),    # 2.96 months
        ((60.0, "days"), (2, "months"), False),   # 1.97 months
        ((2.0, "months"), (70, "days"), True),    # 60.9 days
        ((2.0, "months"), (61, "days"), False),
    ])
    def test_quote_in_another_unit_is_checked_in_its_unit(self, period, quoted, warned):
        from algoeff.datasets import CrossDomainComparison
        c = CrossDomainComparison(task="t", kind="training", baseline="a", improved="b",
                                  reported_factor=4.0, period_value=period[0],
                                  period_unit=period[1], reported_period_value=quoted[0],
                                  reported_period_unit=quoted[1])
        shown = f"{period[0]:.0f} {period[1]}" if period[1] == "days" else "2.0 months"
        expected = (f"a -> b: elapsed period {shown} does not round to the quoted "
                    f"{fmt_factor(quoted[0])} {quoted[1]}",)
        assert doubling_table([c]).warnings == (expected if warned else ())


class TestComputeTable:
    def test_bundled_order_and_frontier_flags(self, records, front):
        t = compute_table(records, front, reported=REPORTED_TERAFLOP_S_DAYS)
        assert t.columns == ("model", "date", "epochs", "gigaflops_per_image",
                             "total", "quoted_total", "deviation", "on_frontier")
        names = [r[0] for r in t.rows]
        assert names[0] == "Vgg-11"             # largest total first
        assert names[-1] == "EfficientNet-b0"   # smallest last
        assert len(names) == 16
        flagged = {r[0] for r in t.rows if r[7] == "yes"}
        assert flagged == set(FRONTIER_NAMES)

    def test_bundled_deviations_small_and_warningless(self, records, front):
        t = compute_table(records, front, reported=REPORTED_TERAFLOP_S_DAYS)
        assert t.warnings == ()
        for row in t.rows:
            assert row[6].endswith("%")
            assert abs(float(row[6].rstrip("%"))) <= 2.0

    def test_alexnet_cells(self, records, front):
        t = compute_table(records, front, reported=REPORTED_TERAFLOP_S_DAYS)
        row = next(r for r in t.rows if r[0] == "AlexNet")
        assert row[2] == "90"
        assert row[3] == "0.77"
        assert row[4] == "266.1"
        assert row[5] == "266.1"

    def test_total_ties_break_by_name(self):
        d = datetime.date(2015, 1, 1)
        records = [simple_record("bbb", d, 1e17),
                   simple_record("aaa", datetime.date(2015, 6, 1), 1e17)]
        t = compute_table(records, frontier(records))
        assert [r[0] for r in t.rows] == ["aaa", "bbb"]

    def test_equal_totals_stay_in_name_order(self):
        d = datetime.date(2015, 1, 1)
        named = [("ddd", 1e17), ("ccc", 2e17), ("bbb", 1e17), ("abc", 3e17), ("aaa", 2e17),
                 ("aab", 1e17)]
        records = [simple_record(n, d + datetime.timedelta(days=i), total)
                   for i, (n, total) in enumerate(named)]
        t = compute_table(records, frontier(records))
        assert [r[0] for r in t.rows] == ["abc", "aaa", "ccc", "aab", "bbb", "ddd"]

    def test_large_deviation_warns(self):
        r = simple_record("big", datetime.date(2015, 1, 1), 2e17)
        t = compute_table([r], frontier([r]), reported={"big": 100.0})  # quoted 1e17
        assert len(t.warnings) == 1
        assert "deviates +100.00%" in t.warnings[0]

    @pytest.mark.parametrize("quoted,warned", [(100.0, False), (98.5, False), (102.0, False),
                                               (97.0, True), (103.0, True)])
    def test_deviation_warns_beyond_two_percent(self, quoted, warned):
        r = simple_record("r", datetime.date(2015, 1, 1), 1e17)
        t = compute_table([r], frontier([r]), reported={"r": quoted})
        assert bool(t.warnings) == warned

    def test_large_deviation_note_in_full(self):
        r = simple_record("big", datetime.date(2015, 1, 1), 2e17)
        t = compute_table([r], frontier([r]), reported={"big": 100.0})
        assert t.rows[0][4:7] == ("200.0", "100.0", "+100.00%")
        assert t.warnings == ("big: computed total 200.0 deviates +100.00% from the quoted 100.0",)

    @pytest.mark.parametrize("quoted", [0.0, -1.0, math.inf, math.nan, 1e300, "100", True, None])
    def test_bad_quoted_total_names_its_record(self, quoted):
        r = simple_record("big", datetime.date(2015, 1, 1), 2e17)
        with pytest.raises(TrendError) as raised:
            compute_table([r], frontier([r]), reported={"big": quoted})
        assert str(raised.value) == (
            f"big: quoted total must be positive and finite in raw flops, got {quoted!r}")

    def test_unquoted_records_have_blank_cells(self):
        r = simple_record("solo", datetime.date(2015, 1, 1), 2e17)
        t = compute_table([r], frontier([r]), reported={"other": 1.0})
        assert t.rows[0][5] == "" and t.rows[0][6] == ""


class TestFrontierPoints:
    def test_bundled(self, records, front):
        t = frontier_points(records, front)
        assert len(t.rows) == 16
        assert t.rows[0][0] == "AlexNet"
        assert t.rows[0][2] == "0.000"
        # three residual networks share a date and sort by name
        same_day = [r[0] for r in t.rows if r[1] == "2015-12-10"]
        assert same_day == ["Resnet-18", "Resnet-34", "Resnet-50"]
        for row in t.rows:
            assert row[5] in ("", "yes")
        flagged = {r[0] for r in t.rows if r[5] == "yes"}
        assert flagged == set(FRONTIER_NAMES)

    def test_log2_column(self, records, front):
        t = frontier_points(records, front)
        alexnet = next(r for r in t.rows if r[0] == "AlexNet")
        assert alexnet[4] == f"{math.log2(2.66112e17):.4f}"

    def test_unit_applies_to_total_not_log(self, records, front):
        t = frontier_points(records, front, unit="table")
        alexnet = next(r for r in t.rows if r[0] == "AlexNet")
        assert float(alexnet[3]) == pytest.approx(266.112)
        assert alexnet[4] == f"{math.log2(2.66112e17):.4f}"

    def test_equal_dates_stay_in_name_order(self):
        d = datetime.date(2015, 1, 1)
        dated = [("ddd", d), ("ccc", d.replace(month=3)), ("bbb", d), ("abc", d.replace(year=2014)),
                 ("aaa", d.replace(month=3)), ("aab", d)]
        records = [simple_record(n, day, 1e17 / (i + 1)) for i, (n, day) in enumerate(dated)]
        t = frontier_points(records, frontier(records))
        assert [r[0] for r in t.rows] == ["abc", "aab", "bbb", "ddd", "aaa", "ccc"]


def test_frontier_flag_follows_the_record_not_its_name():
    # two Python-built records of one name: only the one on the frontier is flagged
    first = simple_record("a", datetime.date(2015, 1, 1), 1e15)
    later = simple_record("a", datetime.date(2016, 1, 1), 2e15)
    records = [first, later]
    front = frontier(records)
    assert front.records == (first,)
    computed = compute_table(records, front)
    assert [(r[1], r[7]) for r in computed.rows] == [("2016-01-01", ""), ("2015-01-01", "yes")]
    points = frontier_points(records, front)
    assert [(r[1], r[5]) for r in points.rows] == [("2015-01-01", "yes"), ("2016-01-01", "")]


class TestCurvePoints:
    def test_long_format(self):
        a = ComputeCurve("a", "top5", (1e15, 2e15), (0.5, 0.6))
        b = ComputeCurve("b", "top5", (3e15,), (0.7,))
        t = curve_points([a, b])
        assert len(t.rows) == 3
        assert t.rows[0] == ("a", "top5", "1.000000e+15", "0.50000")
        assert t.rows[2][0] == "b"

    def test_unit_conversion(self):
        a = ComputeCurve("a", "top5", (1e15,), (0.5,))
        t = curve_points([a], unit="table")
        assert t.rows[0][2] == "1.000000e+00"


class TestEffectiveComputePoints:
    def test_default_grid(self):
        t = effective_compute_points()
        assert t.columns == ("month", "hardware", "spending", "efficiency",
                             "effective")
        months = [r[0] for r in t.rows]
        assert months == ["0", "6", "12", "18", "24", "30", "36", "42", "48",
                          "54", "60", "66", "72"]
        assert t.rows[0] == ("0", "1", "1", "1", "1")
        assert t.rows[-1] == ("72", "8", "3.75e+04", "25", "7.5e+06")

    def test_growth_is_monotone(self):
        t = effective_compute_points()
        values = [float(r[4]) for r in t.rows]
        assert values == sorted(values)


SMALL = Table(key="k", title="Small table", columns=("a", "b"),
              rows=(("1", "2"), ("3", "x,y")), warnings=("check row two",))


# cells with pipes, newlines, quotes, backslashes and non-ASCII text beside
# arbitrary characters
_CELL = st.text(st.one_of(st.sampled_from('| \né€😀"\\'), st.characters()), max_size=6)


@st.composite
def any_table(draw) -> Table:
    width = draw(st.integers(1, 4))
    return Table(key="k", title=draw(_CELL),
                 columns=tuple(draw(st.lists(_CELL, min_size=width, max_size=width))),
                 rows=tuple(draw(st.lists(st.tuples(*[_CELL] * width), max_size=3))),
                 warnings=tuple(draw(st.lists(_CELL, max_size=2))))


class TestRenderers:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(any_table(), max_size=3))
    def test_markdown_matches_oracle(self, tables):
        assert render_markdown(tables) == markdown_oracle(tables)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(any_table(), max_size=3))
    @example([Table(key="k", title='é "q" \\ 😀', columns=("a\\", '"'), rows=(),
                    warnings=())])
    @example([])
    def test_json_matches_oracle(self, tables):
        # the renderer hands json its tuples, which it writes as the arrays of lists
        assert render_json(tables) == json_oracle(tables)

    def test_markdown_of_no_tables_is_one_newline(self):
        assert render_markdown([]) == "\n"

    def test_markdown(self):
        out = render_markdown([SMALL])
        lines = out.splitlines()
        assert lines[0] == "## Small table"
        assert lines[2] == "| a | b |"
        assert lines[3] == "| --- | --- |"
        assert lines[4] == "| 1 | 2 |"
        assert lines[-1] == "> note: check row two"
        assert out.endswith("\n")

    def test_csv_quotes_and_skips_warnings(self):
        out = render_csv([SMALL])
        assert out == '# Small table\na,b\n1,2\n3,"x,y"\n'

    def test_csv_separates_tables_with_blank_line(self):
        out = render_csv([SMALL, SMALL])
        assert "\n\n# Small table\n" in out

    def test_json_round_trips(self):
        payload = json.loads(render_json([SMALL]))
        t = payload["tables"][0]
        assert t["key"] == "k"
        assert t["columns"] == ["a", "b"]
        assert t["rows"] == [["1", "2"], ["3", "x,y"]]
        assert t["warnings"] == ["check row two"]

    def test_render_dispatch(self):
        for fmt in FORMATS:
            assert render([SMALL], fmt)
        with pytest.raises(ValueError, match="unknown format"):
            render([SMALL], "xml")

    def test_byte_determinism(self, records, comparisons, front):
        tables = [
            efficiency_table(front),
            doubling_table(comparisons),
            compute_table(records, front, reported=REPORTED_TERAFLOP_S_DAYS),
        ]
        again = [
            efficiency_table(frontier(records)),
            doubling_table(comparisons),
            compute_table(records, frontier(records),
                          reported=REPORTED_TERAFLOP_S_DAYS),
        ]
        for fmt in FORMATS:
            assert render(tables, fmt) == render(again, fmt)

    def test_table_warnings_collects_in_order(self):
        other = Table(key="o", title="t", columns=("a",), rows=(),
                      warnings=("later",))
        assert table_warnings([SMALL, other]) == ("check row two", "later")
