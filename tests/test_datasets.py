"""Bundled records, cross-domain comparisons and example curves."""
import datetime
import json
import math

import pytest

from algoeff.archflops import builtin_arch
from algoeff.curves import LearningCurve, Threshold, epochs_to_threshold
from algoeff.datasets import (
    REPORTED_TERAFLOP_S_DAYS,
    CrossDomainComparison,
    DatasetError,
    comparison_from_dict,
    comparisons_from_json,
    curve_names,
    load_cross_domain,
    load_curve,
    load_imagenet_records,
)
from algoeff.trends import to_report_units


@pytest.fixture(scope="module")
def records():
    return load_imagenet_records()


@pytest.fixture(scope="module")
def comparisons():
    return load_cross_domain()


class TestImagenetRecords:
    def test_sixteen_records(self, records):
        assert len(records) == 16

    def test_names_match_reported_table(self, records):
        assert {r.name for r in records} == set(REPORTED_TERAFLOP_S_DAYS)

    def test_shared_threshold(self, records):
        assert all(r.threshold == Threshold("top5", 0.791) for r in records)

    def test_all_carry_triples(self, records):
        for r in records:
            assert r.flops_per_image is not None, r.name
            assert r.epochs is not None, r.name

    def test_totals_near_quoted_values(self, records):
        for r in records:
            quoted = REPORTED_TERAFLOP_S_DAYS[r.name]
            computed = to_report_units(r.total, "table")
            assert computed == pytest.approx(quoted, rel=0.02), r.name

    def test_per_image_cost_is_the_registry_benchmark_figure(self, records):
        # two copies of sixteen numbers: criterion 01 reads the zoo registry's,
        # every training total the records'
        for r in records:
            reported = builtin_arch(r.name).metadata["reported_gigaops_per_image"]
            assert r.flops_per_image == reported["benchmark"] * 1e9, r.name

    def test_alexnet_row(self, records):
        alexnet = next(r for r in records if r.name == "AlexNet")
        assert alexnet.date == datetime.date(2012, 6, 1)
        assert alexnet.epochs == 90.0
        assert alexnet.flops_per_image == 7.7e8

    def test_dates_span_2012_to_2019(self, records):
        dates = sorted(r.date for r in records)
        assert dates[0].year == 2012
        assert dates[-1].year == 2019


class TestCrossDomainBundle:
    def test_eight_comparisons(self, comparisons):
        assert len(comparisons) == 8

    def test_image_comparison_is_the_records(self, comparisons, records):
        # two copies of two totals and two dates: the doubling table reads the
        # comparison's, every records table the records'
        image = comparisons[0]
        by_name = {r.name: r for r in records}
        for name, compute, date in [
            (image.baseline, image.baseline_compute, image.baseline_date),
            (image.improved, image.improved_compute, image.improved_date),
        ]:
            assert compute == pytest.approx(by_name[name].total, rel=1e-12), name
            assert date == by_name[name].date, name

    def test_kinds(self, comparisons):
        kinds = [c.kind for c in comparisons]
        assert kinds.count("training") == 6
        assert kinds.count("inference") == 2

    def test_estimated_flags(self, comparisons):
        estimated = {c.label for c in comparisons if c.estimated}
        assert estimated == {"AlphaGo Zero -> AlphaZero",
                             "OpenAI Five -> OpenAI Five Rerun"}

    def test_who_has_computed_factors(self, comparisons):
        computed = {c.label for c in comparisons if c.baseline_compute is not None}
        assert computed == {
            "AlexNet -> EfficientNet-b0",
            "Seq2Seq ensemble -> Transformer big",
            "GNMT -> Transformer big",
            "AlphaGo Zero -> AlphaZero",
            "OpenAI Five -> OpenAI Five Rerun",
        }

    def test_translation_partial_run_factors(self, comparisons):
        by_label = {c.label: c for c in comparisons}
        seq2seq = by_label["Seq2Seq ensemble -> Transformer big"]
        assert seq2seq.improved_fraction == 0.2
        assert seq2seq.factor() == pytest.approx(4.0e19 / (0.2 * 3.3e18))
        gnmt = by_label["GNMT -> Transformer big"]
        assert gnmt.factor() == pytest.approx(1.4e20 / (0.68 * 2.3e19))

    def test_reported_only_rows_quote_verbatim(self, comparisons):
        by_label = {c.label: c for c in comparisons}
        resnet = by_label["Resnet-50 -> EfficientNet-b0"]
        assert resnet.baseline_compute is None
        assert resnet.factor() == 10.0

    @pytest.mark.parametrize("label,expected,unit", [
        # The first row uses exact dates, so its doubling lands at 15.3
        # while the headline 16 came from the rounded 72-month period.
        ("AlexNet -> EfficientNet-b0", 15.319208317874821, "months"),
        ("Seq2Seq ensemble -> Transformer big", 6.079653425126735, "months"),
        ("GNMT -> Transformer big", 3.7949291032230974, "months"),
        ("AlphaGo Zero -> AlphaZero", 4.024975885236968, "months"),
        ("OpenAI Five -> OpenAI Five Rerun", 25.42484982226779, "days"),
    ])
    def test_computed_doublings(self, comparisons, label, expected, unit):
        c = next(x for x in comparisons if x.label == label)
        value, got_unit = c.doubling()
        assert got_unit == unit
        assert value == pytest.approx(expected, rel=1e-9)

    def test_doublings_near_quoted_when_periods_match(self, comparisons):
        for c in comparisons:
            if c.baseline_compute is None or c.baseline_date is not None:
                continue
            value, unit = c.doubling()
            if unit == c.reported_doubling_unit:
                assert value == pytest.approx(c.reported_doubling_value, abs=0.5), c.label

    def test_dota_doubling_stays_in_days(self, comparisons):
        dota = next(c for c in comparisons if "Rerun" in c.improved)
        value, unit = dota.doubling()
        assert unit == "days"
        assert value == pytest.approx(60 / math.log2(770 / 150), rel=1e-12)


class TestCrossDomainValidation:
    def base(self, **overrides):
        kwargs = dict(task="t", kind="training", baseline="a", improved="b",
                      baseline_compute=4.0, improved_compute=1.0, period_value=12.0)
        kwargs.update(overrides)
        return kwargs

    def test_minimal_ok(self):
        c = CrossDomainComparison(**self.base())
        assert c.label == "a -> b"
        assert c.factor() == 4.0
        assert c.period() == (12.0, "months")
        assert c.doubling() == (6.0, "months")

    @pytest.mark.parametrize("improved_date", [datetime.date(2012, 6, 1),
                                               datetime.date(2012, 1, 1)])
    def test_doubling_needs_time_to_pass(self, improved_date):
        c = CrossDomainComparison(**self.base(period_value=None,
                                              baseline_date=datetime.date(2012, 6, 1),
                                              improved_date=improved_date))
        with pytest.raises(DatasetError,
                           match=r"^a -> b: elapsed time must be positive and finite"):
            c.doubling()

    def test_bad_kind(self):
        with pytest.raises(DatasetError, match="training or inference"):
            CrossDomainComparison(**self.base(kind="deployment"))

    def test_computes_come_in_pairs(self):
        with pytest.raises(DatasetError, match="pairs"):
            CrossDomainComparison(**self.base(improved_compute=None))

    def test_needs_some_factor_source(self):
        with pytest.raises(DatasetError, match="needs compute totals"):
            CrossDomainComparison(**self.base(baseline_compute=None,
                                              improved_compute=None))

    def test_reported_factor_suffices(self):
        c = CrossDomainComparison(**self.base(baseline_compute=None,
                                              improved_compute=None,
                                              reported_factor=7.0))
        assert c.baseline_compute is None
        assert c.factor() == 7.0

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_fraction_range(self, fraction):
        with pytest.raises(DatasetError, match="improved_fraction"):
            CrossDomainComparison(**self.base(improved_fraction=fraction))

    @pytest.mark.parametrize("fraction", ["x", None, True, math.nan, math.inf])
    def test_fraction_must_be_a_number(self, fraction):
        with pytest.raises(DatasetError, match=r"^a -> b: improved_fraction outside \(0, 1\]$"):
            CrossDomainComparison(**self.base(improved_fraction=fraction))

    def test_non_numeric_fraction_from_dict_is_reported_as_such(self):
        with pytest.raises(DatasetError, match=r"^a -> b: improved_fraction outside"):
            comparison_from_dict(self.base(improved_fraction="x"))

    @pytest.mark.parametrize("field,value", [
        ("task", 5), ("task", ""), ("kind", None), ("baseline", None), ("improved", [1]),
    ])
    def test_names_must_be_strings(self, field, value):
        expected = f"comparison {field} must be a non-empty string, got {value!r}"
        with pytest.raises(DatasetError) as raised:
            CrossDomainComparison(**self.base(**{field: value}))
        assert str(raised.value) == expected

    @pytest.mark.parametrize("field", ["period_unit", "reported_period_unit",
                                       "reported_doubling_unit"])
    def test_period_units_checked(self, field):
        with pytest.raises(DatasetError, match="months or days"):
            CrossDomainComparison(**self.base(**{field: "years"}))

    def test_dates_come_in_pairs(self):
        with pytest.raises(DatasetError, match="dates must come in pairs"):
            CrossDomainComparison(**self.base(
                baseline_date=datetime.date(2012, 1, 1)))

    @pytest.mark.parametrize("baseline,improved,bad", [
        ("2012-01-01", "2013-01-01", "baseline_date"),
        (datetime.date(2012, 1, 1), datetime.datetime(2013, 1, 1), "improved_date"),
        (datetime.datetime(2012, 1, 1), datetime.date(2013, 1, 1), "baseline_date"),
        (datetime.date(2012, 1, 1), 2013, "improved_date"),
    ])
    def test_dates_must_be_dates(self, baseline, improved, bad):
        value = baseline if bad == "baseline_date" else improved
        with pytest.raises(DatasetError) as raised:
            CrossDomainComparison(**self.base(period_value=None, baseline_date=baseline,
                                              improved_date=improved))
        assert str(raised.value) == f"a -> b: {bad} must be a datetime.date or None, got {value!r}"

    def test_needs_period_or_dates(self):
        with pytest.raises(DatasetError, match="period or a date pair"):
            CrossDomainComparison(**self.base(period_value=None))

    def test_dates_win_over_stated_period(self):
        c = CrossDomainComparison(**self.base(
            baseline_date=datetime.date(2012, 6, 1),
            improved_date=datetime.date(2019, 5, 28),
            period_value=72.0))
        value, unit = c.period()
        assert unit == "months"
        assert value == pytest.approx(2552 / (365.2425 / 12))

    def test_fraction_scales_factor(self):
        c = CrossDomainComparison(**self.base(improved_fraction=0.5))
        assert c.factor() == 8.0

    @pytest.mark.parametrize("field,value", [
        ("improved_compute", 0.0), ("baseline_compute", -1.0), ("improved_compute", math.inf),
        ("baseline_compute", "4"), ("improved_compute", True), ("baseline_compute", 10**400),
    ])
    def test_compute_totals_positive_finite(self, field, value):
        with pytest.raises(DatasetError, match=f"^a -> b: {field} must be positive and finite"):
            CrossDomainComparison(**self.base(**{field: value}))

    @pytest.mark.parametrize("field,value", [
        ("period_value", -12), ("period_value", 0.0), ("reported_factor", "x"),
        ("reported_factor", True), ("reported_period_value", math.nan),
        ("reported_doubling_value", 10**400), ("reported_doubling_value", -math.inf),
    ])
    def test_quoted_numbers_positive_finite(self, field, value):
        with pytest.raises(DatasetError, match=f"^a -> b: {field} must be positive and finite"):
            CrossDomainComparison(**self.base(**{field: value}))

    @pytest.mark.parametrize("field,value,expected", [
        ("estimated", "no", "estimated must be true or false, got 'no'"),
        ("estimated", 1, "estimated must be true or false, got 1"),
        ("estimated", None, "estimated must be true or false, got None"),
        ("notes", 5, "notes must be a string, got 5"),
        ("compute_unit", 5, "compute_unit must be a string, got 5"),
        ("compute_unit", None, "compute_unit must be a string, got None"),
    ])
    def test_flag_and_text_fields_typed(self, field, value, expected):
        with pytest.raises(DatasetError) as raised:
            comparisons_from_json(json.dumps([self.base(**{field: value})]))
        assert str(raised.value) == f"a -> b: {expected}"

    def test_factor_outside_float_range(self):
        c = CrossDomainComparison(**self.base(baseline_compute=1e308, improved_compute=1e-10))
        with pytest.raises(DatasetError, match="^a -> b: factor .* is not a finite number$"):
            c.doubling()

    def test_doubling_needs_improvement(self):
        c = CrossDomainComparison(**self.base(baseline_compute=1.0,
                                              improved_compute=4.0))
        with pytest.raises(DatasetError, match="no doubling time"):
            c.doubling()


class TestComparisonFromDict:
    GOOD = {"task": "t", "kind": "training", "baseline": "a", "improved": "b",
            "baseline_compute": 4.0, "improved_compute": 1.0, "period_value": 12.0}

    def test_good(self):
        assert comparison_from_dict(dict(self.GOOD)).factor() == 4.0

    def test_not_a_dict(self):
        with pytest.raises(DatasetError, match="expected an object"):
            comparison_from_dict([1, 2])

    def test_unknown_fields(self):
        with pytest.raises(DatasetError, match="unknown fields"):
            comparison_from_dict({**self.GOOD, "gpu": "V100"})

    @pytest.mark.parametrize("missing", ["task", "kind", "baseline", "improved"])
    def test_required_strings(self, missing):
        obj = dict(self.GOOD)
        del obj[missing]
        with pytest.raises(DatasetError, match=f"^comparison: missing required field '{missing}'$"):
            comparison_from_dict(obj)

    @pytest.mark.parametrize("field,value", [
        ("task", 5), ("kind", ""), ("baseline", None), ("improved", [1]),
    ])
    def test_name_errors_lead_with_position(self, field, value):
        good = json.dumps(self.GOOD)
        text = f"[{good}, {json.dumps({**self.GOOD, field: value})}]"
        with pytest.raises(DatasetError) as raised:
            comparisons_from_json(text)
        assert str(raised.value) == (
            f"comparison 1: comparison {field} must be a non-empty string, got {value!r}")

    def test_dates_parsed(self):
        obj = {**self.GOOD, "baseline_date": "2012-06-01",
               "improved_date": "2019-05-28"}
        del obj["period_value"]
        c = comparison_from_dict(obj)
        assert c.baseline_date == datetime.date(2012, 6, 1)

    def test_bad_date(self):
        obj = {**self.GOOD, "baseline_date": "June 2012", "improved_date": "2019-05-28"}
        with pytest.raises(DatasetError, match="not YYYY-MM-DD"):
            comparison_from_dict(obj)

    @pytest.mark.parametrize("text", ["20120601", "2013-W01-1"])
    def test_other_iso_date_forms(self, text):
        obj = {**self.GOOD, "baseline_date": "2012-06-01", "improved_date": text}
        with pytest.raises(DatasetError,
                           match=f"^comparison: improved_date '{text}' is not YYYY-MM-DD$"):
            comparison_from_dict(obj)

    def test_json_array_errors_name_index(self):
        with pytest.raises(DatasetError, match="comparison 1"):
            comparisons_from_json('[{"task":"t","kind":"training","baseline":"a",'
                                  '"improved":"b","reported_factor":2.0,'
                                  '"period_value":1.0}, {"task":"t"}]')

    def test_json_must_be_array(self):
        with pytest.raises(DatasetError, match="array"):
            comparisons_from_json('{"task": "t"}')

    def test_json_must_parse(self):
        with pytest.raises(DatasetError, match="not valid json"):
            comparisons_from_json("nope")

    def test_json_int_too_long_to_parse(self):
        with pytest.raises(DatasetError, match="not valid json: Exceeds the limit"):
            comparisons_from_json("[" + "1" * 5000 + "]")

    def test_json_nested_too_deeply(self):
        with pytest.raises(DatasetError,
                           match="^comparisons file is not valid json: nested too deeply$"):
            comparisons_from_json("[" * 100_000)


class TestBundledCurves:
    def test_names(self):
        assert curve_names() == ("alexnet", "googlenet", "resnet50", "vgg11")

    def test_load_returns_learning_curve(self):
        c = load_curve("alexnet")
        assert isinstance(c, LearningCurve)
        assert c.name == "alexnet"
        assert c.metric == "top5"

    def test_unknown_curve(self):
        with pytest.raises(DatasetError, match="available: alexnet"):
            load_curve("lenet")

    @pytest.mark.parametrize("name,record_name", [
        ("alexnet", "AlexNet"),
        ("googlenet", "GoogLeNet"),
        ("vgg11", "Vgg-11"),
        ("resnet50", "Resnet-50"),
    ])
    def test_curves_cross_at_recorded_epochs(self, name, record_name, records):
        record = next(r for r in records if r.name == record_name)
        curve = load_curve(name)
        assert epochs_to_threshold(curve, record.threshold) == record.epochs
