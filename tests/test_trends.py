"""Records, factors, frontiers, trend fits, effective compute."""
import copy
import dataclasses
import datetime
import json
import math
import pickle
import platform
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algoeff import _jsonfile
from algoeff.curves import CurveError, Threshold
from algoeff.trends import (
    MONTH_DAYS,
    UNIT_DIVISORS,
    Decomposition,
    EfficiencyRecord,
    EffectiveComputeModel,
    Frontier,
    TrendError,
    date_to_months,
    decompose,
    doubling_time,
    effective_compute,
    efficiency_factor,
    find_record,
    fit_trend,
    frontier,
    moore_factor,
    partial_run_factor,
    records_from_json,
    records_to_json,
    to_report_units,
)

from algoeff.datasets import load_imagenet_records

from _generators import random_records, records_file_records
from _oracles import frontier_oracle, records_json_oracle, regression_oracle


def rec(name="r", date=datetime.date(2015, 1, 1), **kwargs):
    if not kwargs:
        kwargs = {"total_compute": 1e17}
    return EfficiencyRecord(name=name, date=date, **kwargs)


class TestUnits:
    def test_divisors(self):
        assert UNIT_DIVISORS == {"raw": 1.0, "stated": 8.64e16, "table": 1e15}

    def test_raw_is_identity(self):
        assert to_report_units(5e16) == 5e16
        assert to_report_units(5e16, "raw") == 5e16

    def test_stated_is_teraflops_day(self):
        assert to_report_units(8.64e16, "stated") == 1.0

    def test_table_unit(self):
        assert to_report_units(2.66112e17, "table") == pytest.approx(266.112)

    def test_unknown_unit(self):
        with pytest.raises(TrendError, match="unknown unit"):
            to_report_units(1.0, "petaflops")

    def test_date_to_months(self):
        d = datetime.date(2012, 6, 1)
        assert date_to_months(d) == d.toordinal() / MONTH_DAYS

    def test_month_days_is_mean_gregorian_month(self):
        assert MONTH_DAYS == pytest.approx(365.2425 / 12)


class TestEfficiencyRecord:
    def test_total_from_explicit(self):
        assert rec(total_compute=2e17).total == 2e17

    def test_total_from_triple(self):
        r = rec(flops_per_image=7.7e8, epochs=90)
        assert r.total == 3.0 * 90 * 7.7e8 * 1.28e6

    def test_triple_with_custom_images_and_multiplier(self):
        r = rec(flops_per_image=10.0, epochs=2, images_per_epoch=100,
                backward_multiplier=1.0)
        assert r.total == 2000.0

    def test_both_forms_must_agree(self):
        total = 3.0 * 90 * 7.7e8 * 1.28e6
        r = rec(total_compute=total, flops_per_image=7.7e8, epochs=90)
        assert r.total == total

    def test_disagreement_rejected(self):
        with pytest.raises(TrendError, match="disagrees"):
            rec(total_compute=1e17, flops_per_image=7.7e8, epochs=90)

    def test_default_threshold(self):
        r = rec()
        assert r.threshold == Threshold("top5", 0.791)

    def test_effective_images_per_epoch_default(self):
        assert rec(flops_per_image=1.0, epochs=1).images_per_epoch == 1.28e6

    def test_rejects_empty_name(self):
        with pytest.raises(TrendError, match="name"):
            EfficiencyRecord(name="", date=datetime.date(2015, 1, 1), total_compute=1.0)

    @pytest.mark.parametrize("name", [5, None, ["r"], b"r"])
    def test_rejects_non_string_name(self, name):
        with pytest.raises(TrendError, match=r"^record name must be a non-empty string$"):
            EfficiencyRecord(name=name, date=datetime.date(2015, 1, 1), total_compute=1.0)

    def test_rejects_non_date(self):
        with pytest.raises(TrendError, match="date"):
            EfficiencyRecord(name="r", date="2015-01-01", total_compute=1.0)

    def test_rejects_datetime(self):
        with pytest.raises(TrendError, match="date"):
            EfficiencyRecord(name="r", date=datetime.datetime(2015, 1, 1),
                             total_compute=1.0)

    def test_rejects_bad_threshold_type(self):
        with pytest.raises(TrendError, match="Threshold"):
            rec(threshold=0.791, total_compute=1.0)

    @pytest.mark.parametrize("field,value", [
        ("total_compute", 0), ("total_compute", -1.0), ("total_compute", True),
        ("epochs", 0), ("flops_per_image", -2.0), ("images_per_epoch", 0),
    ])
    def test_rejects_non_positive_numbers(self, field, value):
        kwargs = {"flops_per_image": 1.0, "epochs": 1.0}
        kwargs[field] = value
        if field == "total_compute":
            kwargs = {field: value}
        with pytest.raises(TrendError):
            rec(**kwargs)

    def test_rejects_lonely_flops_per_image(self):
        with pytest.raises(TrendError, match="together"):
            rec(flops_per_image=1.0)

    def test_rejects_lonely_epochs(self):
        with pytest.raises(TrendError, match="together"):
            rec(epochs=4.0)

    def test_rejects_lonely_images_per_epoch(self):
        with pytest.raises(TrendError, match="meaningless"):
            rec(total_compute=1.0, images_per_epoch=100.0)

    def test_rejects_nothing(self):
        with pytest.raises(TrendError, match="needs total_compute"):
            EfficiencyRecord(name="r", date=datetime.date(2015, 1, 1))

    def test_rejects_bad_backward_multiplier(self):
        with pytest.raises(TrendError, match="backward_multiplier"):
            rec(total_compute=1.0, backward_multiplier=0.0)

    @pytest.mark.parametrize("field", ["total_compute", "flops_per_image", "epochs",
                                       "images_per_epoch", "backward_multiplier"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 10**400, "3", False])
    def test_rejects_non_finite_and_mistyped_numbers(self, field, value):
        kwargs = {"flops_per_image": 1.0, "epochs": 1.0}
        if field == "total_compute":
            kwargs = {}
        kwargs[field] = value
        with pytest.raises(TrendError, match=f"r: {field} must be positive and finite"):
            rec(**kwargs)

    def test_rejects_missing_backward_multiplier(self):
        with pytest.raises(TrendError, match="backward_multiplier"):
            rec(total_compute=1.0, backward_multiplier=None)

    def test_overflowing_triple_is_a_trend_error(self):
        with pytest.raises(TrendError) as raised:
            rec("x", flops_per_image=1e300, epochs=1e10)
        assert str(raised.value) == (
            "x: training_compute: the product of the factors is not a finite number")

    def test_numbers_stored_as_floats(self):
        r = rec(flops_per_image=2, epochs=3, images_per_epoch=4, backward_multiplier=1)
        assert [type(v) for v in (r.flops_per_image, r.epochs, r.images_per_epoch,
                                  r.backward_multiplier)] == [float] * 4


_TRIPLE = rec("t", flops_per_image=7.7e8, epochs=90, notes="n")


class TestSlottedRecord:
    """EfficiencyRecord carries slots, not a __dict__, and stays a plain value."""

    @pytest.mark.parametrize("record", [rec(), _TRIPLE])
    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(TypeError):
            vars(record)

    @pytest.mark.parametrize("name", ["name", "total_compute", "notes"])
    def test_assignment_is_refused(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(_TRIPLE, name, 1.0)

    def test_no_new_attribute(self):
        # CPython 3.11's frozen slotted dataclasses raise TypeError for a non-field
        with pytest.raises((AttributeError, TypeError)):
            _TRIPLE.extra = 1
        assert not hasattr(_TRIPLE, "extra")

    @pytest.mark.parametrize("record", [rec(), _TRIPLE])
    def test_copies_are_equal_values(self, record):
        for other in (dataclasses.replace(record), copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert other == record
            assert other is not record
            assert repr(other) == repr(record)
            assert hash(other) == hash(record)
        assert dataclasses.replace(record, name="other").name == "other"

    def test_repr_and_asdict(self):
        assert repr(_TRIPLE) == (
            "EfficiencyRecord(name='t', date=datetime.date(2015, 1, 1), "
            "threshold=Threshold(metric='top5', value=0.791), total_compute=2.66112e+17, "
            "flops_per_image=770000000.0, epochs=90.0, images_per_epoch=1280000.0, "
            "backward_multiplier=3.0, notes='n')")
        assert dataclasses.asdict(_TRIPLE) == {
            "name": "t", "date": datetime.date(2015, 1, 1),
            "threshold": {"metric": "top5", "value": 0.791},
            "total_compute": 2.66112e17, "flops_per_image": 7.7e8,
            "epochs": 90.0, "images_per_epoch": 1.28e6, "backward_multiplier": 3.0,
            "notes": "n"}


class TestLoadedEqualsConstructed:
    """records_from_json builds the record EfficiencyRecord(**fields) builds."""

    @pytest.mark.parametrize("obj,threshold", [
        ({"total_compute": 1e17}, None),
        ({"flops_per_image": 7.7e8, "epochs": 90.0}, None),
        ({"flops_per_image": 7.7e8, "epochs": 90.0, "images_per_epoch": 5e4,
          "backward_multiplier": 2.0, "total_compute": 2.0 * 90 * 7.7e8 * 5e4}, None),
        ({"flops_per_image": 7, "epochs": 3, "images_per_epoch": 4,
          "backward_multiplier": 1}, None),
        ({"total_compute": 10**17}, None),
        ({"total_compute": 1e17, "threshold": 0.9}, Threshold("top5", 0.9)),
        ({"total_compute": 1e17, "threshold": 1}, Threshold("top5", 1.0)),
        ({"total_compute": 1e17, "threshold": {"metric": "top1", "value": 0.7}},
         Threshold("top1", 0.7)),
        ({"total_compute": 1e17, "notes": "hand-entered"}, None),
    ])
    def test_fields_and_types_match(self, obj, threshold):
        loaded = one_record({"name": "x", "date": "2015-01-02", **obj})
        kwargs = {k: v for k, v in obj.items() if k != "threshold"}
        if threshold is not None:
            kwargs["threshold"] = threshold
        built = EfficiencyRecord(name="x", date=datetime.date(2015, 1, 2), **kwargs)
        assert loaded == built
        assert repr(loaded) == repr(built)
        for f in dataclasses.fields(EfficiencyRecord):
            assert type(getattr(loaded, f.name)) is type(getattr(built, f.name)), f.name
        assert loaded.total == built.total


def one_record(obj) -> EfficiencyRecord:
    """The record a records file of obj alone holds."""
    (r,) = records_from_json(json.dumps([obj]))
    return r


def _load_or_message(text: str):
    """The records of a records file, or the message of the TrendError it raises."""
    try:
        return records_from_json(text)
    except TrendError as e:
        return str(e)


# metric/value objects with either key order and with values that print
# unlike some equal value: int, bool, NaN, signed zeros and out of range
_METRIC_VALUE_OBJECTS = [
    f'{{"metric": "top5", "value": {v}}}' for v in ("0.5", "1.0", "1", "true", "NaN",
                                                    "-0.0", "0.0", "2.0")
] + [f'{{"value": {v}, "metric": "top5"}}' for v in ("1.0", "1", "true", "0.0")]

# json arrays of two metric/value objects that are equal but print apart, and
# two that print alike
_EQUAL_UNLIKE_PAIRS = [
    f'[{{"metric": "top5", "value": {a}}}, {b}]' for a, b in (
        ("1.0", '{"metric": "top5", "value": 1}'),
        ("1.0", '{"metric": "top5", "value": true}'),
        ("0.0", '{"metric": "top5", "value": -0.0}'),
        ("-0.0", '{"metric": "top5", "value": 0.0}'),
        ("NaN", '{"metric": "top5", "value": NaN}'),
        ("0.5", '{"value": 0.5, "metric": "top5"}'),
        ("2.0", '{"metric": "top5", "value": 2.0}'),
        ("0.5", '{"metric": "top5", "value": 5e-1}'),
    )
]


class TestRecordJson:
    def test_minimal_dict(self):
        r = one_record({"name": "x", "date": "2015-01-02", "total_compute": 1e15})
        assert r.name == "x"
        assert r.date == datetime.date(2015, 1, 2)

    def test_threshold_as_number_means_top5(self):
        r = one_record({"name": "x", "date": "2015-01-02",
                        "total_compute": 1.0, "threshold": 0.9})
        assert r.threshold == Threshold("top5", 0.9)

    def test_threshold_as_object(self):
        r = one_record({"name": "x", "date": "2015-01-02", "total_compute": 1.0,
                        "threshold": {"metric": "top1", "value": 0.7}})
        assert r.threshold == Threshold("top1", 0.7)

    @pytest.mark.parametrize("threshold", [
        {"metric": "top1"}, {"metric": "top1", "value": 0.7, "extra": 1}, "high", None,
    ])
    def test_bad_thresholds(self, threshold):
        with pytest.raises(TrendError):
            one_record({"name": "x", "date": "2015-01-02",
                        "total_compute": 1.0, "threshold": threshold})

    @pytest.mark.parametrize("value", [10**400, math.inf])
    def test_threshold_number_checked_before_conversion(self, value):
        with pytest.raises(TrendError, match="threshold value"):
            one_record({"name": "x", "date": "2015-01-02", "total_compute": 1.0,
                        "threshold": value})

    def test_unknown_field_rejected(self):
        with pytest.raises(TrendError, match="unknown fields"):
            one_record({"name": "x", "date": "2015-01-02",
                        "total_compute": 1.0, "gpu": "V100"})

    @pytest.mark.parametrize("missing", ["name", "date"])
    def test_missing_required(self, missing):
        obj = {"name": "x", "date": "2015-01-02", "total_compute": 1.0}
        del obj[missing]
        with pytest.raises(TrendError, match="missing required"):
            one_record(obj)

    def test_bad_date_string(self):
        with pytest.raises(TrendError, match="YYYY-MM-DD"):
            one_record({"name": "x", "date": "June 2015", "total_compute": 1.0})

    @pytest.mark.parametrize("text", ["20120601", "2013-W01-1", "2012-02-30"])
    def test_other_iso_date_forms(self, text):
        message = f"^record 0 \\(x\\): date '{text}' is not YYYY-MM-DD$"
        with pytest.raises(TrendError, match=message):
            one_record({"name": "x", "date": text, "total_compute": 1.0})

    def test_notes_must_be_string(self):
        with pytest.raises(TrendError, match="notes"):
            one_record({"name": "x", "date": "2015-01-02",
                        "total_compute": 1.0, "notes": 5})

    @pytest.mark.parametrize("field,value", [
        ("total_compute", "Infinity"), ("total_compute", "NaN"), ("total_compute", "1e400"),
        ("backward_multiplier", '"3"'), ("backward_multiplier", "null"),
    ])
    def test_non_finite_or_mistyped_json_number(self, field, value):
        text = f'[{{"name": "a", "date": "2015-01-02", "total_compute": 1.0, "{field}": {value}}}]'
        with pytest.raises(TrendError, match=field):
            records_from_json(text.replace('"total_compute": 1.0, "total_compute"',
                                           '"total_compute"'))

    def test_records_from_json_not_array(self):
        with pytest.raises(TrendError, match="array"):
            records_from_json("{}")

    def test_records_from_json_invalid(self):
        with pytest.raises(TrendError, match="not valid json"):
            records_from_json("nope")

    @pytest.mark.parametrize("name", ["", 5, None, ["a"]])
    def test_name_must_be_a_non_empty_string(self, name):
        with pytest.raises(TrendError) as info:
            records_from_json(json.dumps([{"name": name, "date": "2015-01-02",
                                           "total_compute": 1.0}]))
        assert str(info.value) == "record 0: name must be a non-empty string"

    def test_error_names_record_index(self):
        with pytest.raises(TrendError, match="record 1"):
            records_from_json('[{"name":"a","date":"2015-01-02","total_compute":1.0},'
                              '{"name":"b"}]')

    @pytest.mark.parametrize("fields,error,message", [
        ('"total_compute": -1', TrendError,
         "record 1 (b): total_compute must be positive and finite, got -1"),
        ('"epochs": 2.0', TrendError,
         "record 1 (b): flops_per_image and epochs must be given together"),
        ('"flops_per_image": 1e300, "epochs": 1e300', TrendError,
         "record 1 (b): training_compute: the product of the factors is not a finite number"),
    ])
    def test_record_error_leads_with_index_and_name(self, fields, error, message):
        text = ('[{"name": "a", "date": "2015-01-02", "total_compute": 1.0},'
                f' {{"name": "b", "date": "2015-01-02", {fields}}}]')
        with pytest.raises(error) as info:
            records_from_json(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("names,message", [
        (["a", "a"], "record 1 (a): name repeats record 0"),
        (["a", "b", "c", "b", "a"], "record 3 (b): name repeats record 1"),
    ])
    def test_repeated_name(self, names, message):
        objs = [{"name": n, "date": f"201{i}-01-01", "total_compute": 1e15 * (i + 1)}
                for i, n in enumerate(names)]
        with pytest.raises(TrendError) as info:
            records_from_json(json.dumps(objs))
        assert str(info.value) == message

    def test_equal_threshold_objects_share_one_instance(self):
        objs = [{"name": f"r{i}", "date": "2015-01-02", "total_compute": 1.0,
                 "threshold": {"metric": m, "value": v}}
                for i, (m, v) in enumerate([("top5", 0.791), ("top1", 0.7), ("top5", 0.791),
                                            ("top1", 0.7), ("top5", 1), ("top5", 1.0)])]
        records = records_from_json(json.dumps(objs))
        assert records[0].threshold is records[2].threshold
        assert records[1].threshold is records[3].threshold
        assert records[0].threshold != records[1].threshold
        assert records[4].threshold == records[5].threshold == Threshold("top5", 1.0)
        assert all(type(r.threshold.value) is float for r in records)

    def test_equal_date_strings_share_one_date(self):
        objs = [{"name": f"r{i}", "date": d, "total_compute": 1.0}
                for i, d in enumerate(["2015-01-02", "2016-03-04", "2015-01-02", "2016-03-04"])]
        records = records_from_json(json.dumps(objs))
        assert records[0].date is records[2].date
        assert records[1].date is records[3].date
        assert [r.date for r in records[:2]] == [datetime.date(2015, 1, 2),
                                                 datetime.date(2016, 3, 4)]

    @pytest.mark.parametrize("threshold,error,message", [
        ({"metric": ["top5"], "value": 0.7}, TrendError,
         "record 1 (b): threshold metric must be a non-empty string"),
        ({"metric": "top5", "value": 0.7, "extra": 1}, TrendError,
         "record 1 (b): threshold object must have exactly the keys metric and value"),
        ({"metric": "top5", "value": True}, TrendError,
         "record 1 (b): threshold value True outside (0, 1]"),
        ({"metric": "top5", "value": 1.5}, TrendError,
         "record 1 (b): threshold value 1.5 outside (0, 1]"),
    ])
    def test_threshold_that_cannot_be_shared_is_checked(self, threshold, error, message):
        # the first record builds a valid top5 threshold that a later lookup could wrongly reuse
        objs = [{"name": "a", "date": "2015-01-02", "total_compute": 1.0,
                 "threshold": {"metric": "top5", "value": 0.7}},
                {"name": "b", "date": "2015-01-02", "total_compute": 1.0,
                 "threshold": threshold}]
        with pytest.raises(error) as info:
            records_from_json(json.dumps(objs))
        assert str(info.value) == message

    @pytest.mark.parametrize("field", ["threshold", "date", "notes", "total_compute"])
    @pytest.mark.parametrize("obj", _METRIC_VALUE_OBJECTS)
    def test_metric_value_object_in_any_field(self, field, obj):
        # record a's threshold is a float-valued object that equal objects could share
        text = ('[{"name": "a", "date": "2015-01-02", "total_compute": 1.0, '
                '"threshold": {"metric": "top5", "value": 1.0}}, '
                f'{{"name": "b", "date": "2016-01-02", "total_compute": 2.0, "{field}": {obj}}}]')
        value = json.loads(obj)
        if field == "threshold":
            try:
                threshold = Threshold(value["metric"], value["value"])
            except CurveError as e:
                expected = f"record 1 (b): {e}"
            else:
                expected = (rec("a", datetime.date(2015, 1, 2), total_compute=1.0,
                                threshold=Threshold("top5", 1.0)),
                            rec("b", datetime.date(2016, 1, 2), total_compute=2.0,
                                threshold=threshold))
        else:
            expected = {
                "date": f"record 1 (b): date {value!r} is not YYYY-MM-DD",
                "notes": "record 1 (b): notes must be a string",
                "total_compute": (f"record 1 (b): total_compute must be positive and finite, "
                                  f"got {value!r}"),
            }[field]
        assert _load_or_message(text) == expected

    @pytest.mark.parametrize("field,pair", [
        (field, pair) for field in ("date", "total_compute") for pair in _EQUAL_UNLIKE_PAIRS
    ])
    def test_equal_objects_keep_their_own_text(self, field, pair):
        # two objects that compare equal but print apart, in one value whose repr is shown
        text = f'[{{"name": "b", "date": "2016-01-02", "total_compute": 2.0, "{field}": {pair}}}]'
        shown = repr(json.loads(pair))
        expected = {
            "date": f"record 0 (b): date {shown} is not YYYY-MM-DD",
            "total_compute": f"record 0 (b): total_compute must be positive and finite, "
                             f"got {shown}",
        }[field]
        assert _load_or_message(text) == expected

    def test_round_trip_preserves_everything(self):
        records = (
            rec("a", datetime.date(2012, 6, 1), flops_per_image=7.7e8, epochs=90),
            EfficiencyRecord(name="b", date=datetime.date(2019, 5, 28),
                             threshold=Threshold("top1", 0.75),
                             total_compute=5.5e15, notes="hand-entered"),
        )
        back = records_from_json(records_to_json(records))
        assert [r.name for r in back] == ["a", "b"]
        assert back[0].total == records[0].total
        assert back[0].flops_per_image == 7.7e8
        assert back[0].epochs == 90.0
        assert back[1].threshold == Threshold("top1", 0.75)
        assert back[1].notes == "hand-entered"

    def test_serialization_is_canonical_and_stable(self):
        records = (rec("a", flops_per_image=2.0, epochs=3.0),)
        once = records_to_json(records)
        twice = records_to_json(records_from_json(once))
        assert once == twice
        obj = json.loads(once)[0]
        # totals are always written out so hand edits stay self-checking
        assert "total_compute" in obj and "backward_multiplier" in obj

    def test_records_to_json_omits_empty_notes(self):
        assert "notes" not in json.loads(records_to_json([rec()]))[0]


def _counted_loads(monkeypatch) -> list:
    """A list that grows by one for each json.loads call from here on."""
    calls = []
    loads = json.loads

    def counted(*args, **kwargs):
        calls.append(kwargs.get("object_hook"))
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    return calls


class TestRecordsBuiltWhileParsed:
    """The parser's object hook builds each record; only a text with an error is parsed again."""

    def test_valid_files_never_reach_the_plain_path(self, monkeypatch):
        def wording(obj, *args):
            raise AssertionError(f"the wording path saw {obj!r}")

        monkeypatch.setattr(_jsonfile, "check_object", wording)
        text = records_to_json(records_file_records(random.Random(3), 500))
        assert len(records_from_json(text)) == 500
        mixed = ('[{"name": "a", "date": "2015-01-02", "total_compute": 1, "threshold": 1},'
                 ' {"date": "2015-01-02", "name": "b", "total_compute": 2.0,'
                 ' "threshold": {"value": 1, "metric": "top1"}},'
                 ' {"name": "c", "date": "2016-01-02", "flops_per_image": 3, "epochs": 2}]')
        assert [r.name for r in records_from_json(mixed)] == ["a", "b", "c"]
        assert len(load_imagenet_records()) == 16

    def test_a_valid_file_is_parsed_once(self, monkeypatch):
        calls = _counted_loads(monkeypatch)
        records_from_json(records_to_json(records_file_records(random.Random(4), 50)))
        assert len(calls) == 1 and calls[0] is not None

    def test_a_bad_record_is_parsed_twice(self, monkeypatch):
        calls = _counted_loads(monkeypatch)
        text = ('[{"name": "a", "date": "2015-01-02", "total_compute": 1.0},'
                ' {"name": "b", "date": "June 2015", "total_compute": 1.0}]')
        with pytest.raises(TrendError) as info:
            records_from_json(text)
        assert str(info.value) == "record 1 (b): date 'June 2015' is not YYYY-MM-DD"
        assert len(calls) == 2 and calls[0] is not None and calls[1] is None

    def test_reversed_key_order_shares_one_threshold(self):
        text = ('[{"name": "a", "date": "2015-01-02", "total_compute": 1.0,'
                ' "threshold": {"metric": "top1", "value": 0.5}},'
                ' {"name": "b", "date": "2015-01-02", "total_compute": 1.0,'
                ' "threshold": {"value": 0.5, "metric": "top1"}}]')
        a, b = records_from_json(text)
        assert a.threshold is b.threshold == Threshold("top1", 0.5)


_THRESHOLD_VALUE = st.one_of(st.sampled_from([0.5, 0.791, 1.0, 1]),
                             st.floats(min_value=5e-324, max_value=1.0))


@st.composite
def valid_records_text(draw) -> str:
    """A valid records file text in the forms a hand-written file may take.

    Keys come in any order; thresholds are missing, bare numbers or
    metric/value objects of either key order, with int or float values;
    dates repeat.
    """
    dates = draw(st.lists(st.dates(), min_size=1, max_size=3))
    objs = []
    for i in range(draw(st.integers(0, 6))):
        obj = {"name": f"r{i}", "date": draw(st.sampled_from(dates)).isoformat()}
        form = draw(st.sampled_from(["missing", "number", "object"]))
        if form == "number":
            obj["threshold"] = draw(_THRESHOLD_VALUE)
        elif form == "object":
            pair = [("metric", draw(st.sampled_from(["top1", "top5"]))),
                    ("value", draw(_THRESHOLD_VALUE))]
            obj["threshold"] = dict(draw(st.permutations(pair)))
        if draw(st.booleans()):
            obj["total_compute"] = draw(st.sampled_from([1e17, 3, 2.5e15]))
        else:
            obj["flops_per_image"] = draw(st.sampled_from([7.7e8, 2]))
            obj["epochs"] = draw(st.sampled_from([90, 1.5]))
        objs.append(dict(draw(st.permutations(list(obj.items())))))
    return json.dumps(objs)


def _plain_oracle(text: str) -> tuple[EfficiencyRecord, ...]:
    """EfficiencyRecord(**fields) of each object json.loads finds in a valid records text."""
    records = []
    for obj in json.loads(text):
        obj["date"] = datetime.date.fromisoformat(obj["date"])
        threshold = obj.get("threshold")
        if isinstance(threshold, dict):
            obj["threshold"] = Threshold(threshold["metric"], threshold["value"])
        elif threshold is not None:
            obj["threshold"] = Threshold("top5", threshold)
        records.append(EfficiencyRecord(**obj))
    return tuple(records)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(valid_records_text())
def test_hook_path_matches_the_plain_oracle(text):
    loaded = records_from_json(text)
    expected = _plain_oracle(text)
    assert loaded == expected
    assert list(map(repr, loaded)) == list(map(repr, expected))


# strings with every kind of character json escapes: quotes, backslashes,
# control characters, non-ASCII and astral code points
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\u2028é€😀'),
                               st.characters()), min_size=1, max_size=12)
# subnormal, huge and integral-valued floats beside arbitrary ones
_EXTREME = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e22, 1e16,
                     1.0, 3.0, 90.0, 2.0 ** 53]),
    st.integers(1, 2**63),
)
_FACTOR = st.one_of(st.floats(min_value=1e-60, max_value=1e60), st.integers(1, 10**6))


@st.composite
def any_record(draw) -> EfficiencyRecord:
    kwargs = {
        "name": draw(_JSON_TEXT),
        "date": draw(st.dates()),
        "threshold": Threshold(draw(_JSON_TEXT),
                               draw(st.floats(min_value=5e-324, max_value=1.0))),
        "backward_multiplier": draw(_FACTOR),
        "notes": draw(st.one_of(st.just(""), _JSON_TEXT)),
    }
    if draw(st.booleans()):
        kwargs["flops_per_image"] = draw(_FACTOR)
        kwargs["epochs"] = draw(_FACTOR)
        if draw(st.booleans()):
            kwargs["images_per_epoch"] = draw(_FACTOR)
        try:
            r = EfficiencyRecord(**kwargs)
        except (TrendError, CurveError):  # the product left the float range
            assume(False)
        if draw(st.booleans()):
            return EfficiencyRecord(**kwargs, total_compute=r.total)
        return r
    return EfficiencyRecord(**kwargs, total_compute=draw(_EXTREME))


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="sizes are CPython's allocations")
def test_loading_holds_one_copy_of_the_records():
    text = records_to_json(records_file_records(random.Random(20), 20_000))

    def peak(call):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    tree, tree_peak = peak(lambda: json.loads(text))
    assert len(tree) == 20_000
    del tree
    records, records_peak = peak(lambda: records_from_json(text))
    assert len(records) == 20_000
    # with the whole parse tree held beside the records, the peak is the tree's
    assert records_peak <= 0.8 * tree_peak, (records_peak, tree_peak)


class TestRecordsFileText:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(any_record(), max_size=4, unique_by=lambda r: r.name))
    def test_matches_json_dumps(self, records):
        text = records_to_json(records)
        assert text == records_json_oracle(records)
        assert records_from_json(text) == tuple(records)

    def test_empty(self):
        assert records_to_json([]) == records_json_oracle([]) == "[]\n"

    def test_bundled_records(self):
        records = load_imagenet_records()
        assert records_to_json(records) == records_json_oracle(records)

    def test_bundled_records_load_back_equal(self):
        records = load_imagenet_records()
        assert records_from_json(records_to_json(records)) == records

    @pytest.mark.parametrize("n", [2_000, 20_000])
    def test_generated_files(self, n):
        records = records_file_records(random.Random(n), n)
        assert records_to_json(records) == records_json_oracle(records)


class TestEfficiencyFactor:
    def test_factor_and_elapsed(self):
        a = rec("a", datetime.date(2012, 6, 1), total_compute=4e17)
        b = rec("b", datetime.date(2013, 6, 1), total_compute=1e17)
        ef = efficiency_factor(a, b)
        assert ef.factor == 4.0
        assert ef.elapsed_days == 365
        assert ef.elapsed_months == pytest.approx(365 / MONTH_DAYS)
        assert (ef.baseline, ef.improved) == ("a", "b")

    def test_reverse_order_gives_negative_elapsed(self):
        a = rec("a", datetime.date(2013, 6, 1), total_compute=1e17)
        b = rec("b", datetime.date(2012, 6, 1), total_compute=4e17)
        ef = efficiency_factor(a, b)
        assert ef.elapsed_days == -365
        assert ef.factor == 0.25

    def test_threshold_mismatch(self):
        a = rec("a", total_compute=1.0)
        b = EfficiencyRecord(name="b", date=datetime.date(2015, 1, 1),
                             threshold=Threshold("top5", 0.9), total_compute=1.0)
        with pytest.raises(TrendError, match="different thresholds"):
            efficiency_factor(a, b)

    def test_reciprocity(self):
        rng = random.Random(42)
        for _ in range(50):
            a = rec("a", total_compute=10 ** rng.uniform(14, 20))
            b = rec("b", total_compute=10 ** rng.uniform(14, 20))
            fwd = efficiency_factor(a, b).factor
            rev = efficiency_factor(b, a).factor
            assert fwd * rev == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("totals", [(1e308, 1e-10), (1e-300, 1e300)])
    def test_rejects_ratio_out_of_float_range(self, totals):
        a = rec("a", total_compute=totals[0])
        b = rec("b", total_compute=totals[1])
        with pytest.raises(TrendError, match="^a to b: ratio of totals is not finite"):
            efficiency_factor(a, b)


class TestDecompose:
    def test_product_identity(self):
        a = rec("a", flops_per_image=7.7e8, epochs=90)
        b = rec("b", flops_per_image=2.0e9, epochs=8)
        d = decompose(a, b)
        assert d.epochs_ratio == 90 / 8
        assert d.flops_per_image_ratio == 7.7e8 / 2.0e9
        assert d.factor == d.epochs_ratio * d.flops_per_image_ratio
        assert d.factor == pytest.approx(efficiency_factor(a, b).factor, rel=1e-12)

    def test_needs_triples(self):
        a = rec("a", total_compute=1e17)
        b = rec("b", flops_per_image=1.0, epochs=1.0)
        with pytest.raises(TrendError, match="decomposition needs"):
            decompose(a, b)

    def test_images_per_epoch_must_match(self):
        a = rec("a", flops_per_image=1.0, epochs=1.0, images_per_epoch=100.0)
        b = rec("b", flops_per_image=1.0, epochs=1.0)
        with pytest.raises(TrendError, match="images_per_epoch"):
            decompose(a, b)

    def test_backward_multiplier_must_match(self):
        a = rec("a", flops_per_image=1.0, epochs=1.0, backward_multiplier=2.0)
        b = rec("b", flops_per_image=1.0, epochs=1.0)
        with pytest.raises(TrendError, match="backward multipliers"):
            decompose(a, b)

    def test_returns_dataclass(self):
        a = rec("a", flops_per_image=1.0, epochs=2.0)
        assert isinstance(decompose(a, a), Decomposition)

    @pytest.mark.parametrize("a_triple,b_triple", [
        ((1e-300, 1e300), (1e300, 1e-300)),   # epochs ratio overflows
        ((1e-300, 1e300), (1e100, 1e-100)),   # per-image ratio underflows to 0
        ((1e100, 1e100), (1e-100, 1e-100)),   # each ratio is finite, their product is not
    ])
    def test_rejects_ratio_out_of_float_range(self, a_triple, b_triple):
        a = rec("a", flops_per_image=a_triple[0], epochs=a_triple[1], images_per_epoch=1.0)
        b = rec("b", flops_per_image=b_triple[0], epochs=b_triple[1], images_per_epoch=1.0)
        with pytest.raises(TrendError, match="^a to b: a term ratio is not finite"):
            decompose(a, b)


class TestPartialRunFactor:
    def test_full_run(self):
        assert partial_run_factor(4e19, 1e19) == 4.0

    def test_fraction_charges_less(self):
        assert partial_run_factor(4.0e19, 3.3e18, 0.2) == pytest.approx(60.606, abs=0.001)

    @pytest.mark.parametrize("kwargs", [
        {"baseline_total": 0}, {"improved_total": -1},
        {"baseline_total": math.inf}, {"improved_total": math.nan},
    ])
    def test_rejects_bad_totals(self, kwargs):
        args = {"baseline_total": 1.0, "improved_total": 1.0}
        args.update(kwargs)
        with pytest.raises(TrendError, match="positive"):
            partial_run_factor(**args)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.2])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(TrendError, match="improved_fraction"):
            partial_run_factor(1.0, 1.0, fraction)

    @pytest.mark.parametrize("args", [(1e308, 1e-10), (1.0, 1e-300, 1e-300)])
    def test_rejects_factor_outside_float_range(self, args):
        with pytest.raises(TrendError, match="is not a finite number"):
            partial_run_factor(*args)


class TestDoublingTime:
    def test_formula(self):
        assert doubling_time(4.0, 24.0) == 12.0

    def test_unit_agnostic(self):
        assert doubling_time(770 / 150, 60.0) == pytest.approx(25.425, abs=0.001)

    def test_linear_in_elapsed(self):
        assert doubling_time(3.0, 20.0) == pytest.approx(2 * doubling_time(3.0, 10.0))

    def test_strictly_decreasing_in_factor(self):
        assert doubling_time(8.0, 12.0) < doubling_time(4.0, 12.0) < doubling_time(2.0, 12.0)

    @pytest.mark.parametrize("factor", [0.5, 1.0, 0.0, -2.0])
    def test_rejects_non_improving_factors(self, factor):
        with pytest.raises(TrendError):
            doubling_time(factor, 12.0)

    def test_rejects_non_positive_elapsed(self):
        with pytest.raises(TrendError, match="elapsed"):
            doubling_time(2.0, 0.0)

    @pytest.mark.parametrize("factor,elapsed,match", [
        (math.inf, 12.0, "factor"), (10**400, 12.0, "factor"), ("4", 12.0, "factor"),
        (2.0, math.inf, "elapsed"), (2.0, math.nan, "elapsed"),
        (1.0000000000000002, 1e300, "doubling time .* is not a finite number"),
    ])
    def test_rejects_non_finite(self, factor, elapsed, match):
        with pytest.raises(TrendError, match=match):
            doubling_time(factor, elapsed)


class TestFrontier:
    def test_strictly_improving_kept(self):
        a = rec("a", datetime.date(2012, 1, 1), total_compute=4e17)
        b = rec("b", datetime.date(2013, 1, 1), total_compute=2e17)
        c = rec("c", datetime.date(2014, 1, 1), total_compute=1e17)
        assert frontier([a, b, c]).names == ("a", "b", "c")

    def test_regressions_dropped(self):
        a = rec("a", datetime.date(2012, 1, 1), total_compute=2e17)
        b = rec("b", datetime.date(2013, 1, 1), total_compute=3e17)
        c = rec("c", datetime.date(2014, 1, 1), total_compute=1e17)
        assert frontier([a, b, c]).names == ("a", "c")

    def test_equal_total_does_not_join(self):
        a = rec("a", datetime.date(2012, 1, 1), total_compute=2e17)
        b = rec("b", datetime.date(2013, 1, 1), total_compute=2e17)
        assert frontier([a, b]).names == ("a",)

    def test_same_date_cheapest_wins(self):
        a = rec("a", datetime.date(2012, 1, 1), total_compute=3e17)
        b = rec("b", datetime.date(2012, 1, 1), total_compute=1e17)
        assert frontier([a, b]).names == ("b",)

    def test_same_date_tie_keeps_input_order(self):
        a = rec("a", datetime.date(2012, 1, 1), total_compute=1e17)
        b = rec("b", datetime.date(2012, 1, 1), total_compute=1e17)
        assert frontier([a, b]).names == ("a",)
        assert frontier([b, a]).names == ("b",)

    def test_input_order_irrelevant_across_dates(self):
        a = rec("a", datetime.date(2012, 1, 1), total_compute=4e17)
        b = rec("b", datetime.date(2013, 1, 1), total_compute=2e17)
        assert frontier([b, a]).names == ("a", "b")

    def test_singleton(self):
        assert frontier([rec("only")]).names == ("only",)

    def test_empty_rejected(self):
        with pytest.raises(TrendError, match="at least one"):
            frontier([])

    def test_empty_rejected_before_building_a_frontier(self):
        # the report builders take a Frontier, so this is their one guard against no records
        with pytest.raises(TrendError) as raised:
            frontier([])
        assert str(raised.value) == "frontier needs at least one record"

    def test_threshold_mismatch_rejected(self):
        a = rec("a", total_compute=1.0)
        b = EfficiencyRecord(name="b", date=datetime.date(2016, 1, 1),
                             threshold=Threshold("top5", 0.9), total_compute=0.5)
        with pytest.raises(TrendError, match="different thresholds"):
            frontier([a, b])

    def test_frontier_dataclass_needs_a_record(self):
        with pytest.raises(TrendError) as raised:
            Frontier(records=())
        assert str(raised.value) == "frontier must contain at least one record"

    def test_frontier_dataclass_validates_monotonicity(self):
        a = rec("a", datetime.date(2012, 1, 1), total_compute=1e17)
        b = rec("b", datetime.date(2013, 1, 1), total_compute=2e17)
        with pytest.raises(TrendError, match="strictly decrease"):
            Frontier(records=(a, b))
        with pytest.raises(TrendError, match="strictly increase"):
            Frontier(records=(a, rec("c", datetime.date(2012, 1, 1),
                                     total_compute=5e16)))

    def test_iteration_and_len(self):
        f = frontier([rec("a")])
        assert len(f) == 1
        assert [r.name for r in f] == ["a"]

    def test_random_sets_match_quadratic_oracle(self):
        rng = random.Random(8855)
        for i in range(150):
            records = random_records(rng)
            assert frontier(records).names == tuple(frontier_oracle(records)), f"set {i}"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), min_size=1, max_size=40))
    def test_dense_ties_match_quadratic_oracle(self, points):
        # five dates and four totals: most records tie another on date, total or both
        records = [rec(f"r{i}", datetime.date(2012, 1, 1) + datetime.timedelta(days=d),
                       total_compute=t * 1e15) for i, (d, t) in enumerate(points)]
        assert frontier(records).names == tuple(frontier_oracle(records))


class TestFitTrend:
    def synthetic(self, doubling_months, n=6, start=datetime.date(2012, 6, 1),
                  step_days=200, c0=1e18):
        records = []
        for i in range(n):
            d = start + datetime.timedelta(days=i * step_days)
            months = i * step_days / MONTH_DAYS
            records.append(rec(f"s{i}", d, total_compute=c0 * 2 ** (-months / doubling_months)))
        return records

    def test_regression_recovers_exact_exponential(self):
        fit = fit_trend(self.synthetic(13.0), method="regression")
        assert fit.doubling_months == pytest.approx(13.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.points == 6

    def test_endpoints_recovers_exact_exponential(self):
        fit = fit_trend(self.synthetic(13.0), method="endpoints")
        assert fit.doubling_months == pytest.approx(13.0, rel=1e-9)
        assert fit.r_squared == 1.0
        assert fit.points == 2

    def test_endpoints_matches_doubling_time_arithmetic(self):
        a = rec("a", datetime.date(2012, 6, 1), total_compute=4.4e17)
        b = rec("b", datetime.date(2019, 5, 28), total_compute=1e16)
        fit = fit_trend([a, b], method="endpoints")
        elapsed_months = (b.date - a.date).days / MONTH_DAYS
        assert fit.doubling_months == pytest.approx(
            doubling_time(44.0, elapsed_months), rel=1e-12)

    def test_regression_matches_numpy_least_squares(self):
        rng = random.Random(99)
        records = []
        for i in range(8):
            d = datetime.date(2012, 1, 1) + datetime.timedelta(days=i * 150 + rng.randrange(50))
            records.append(rec(f"n{i}", d,
                               total_compute=1e18 * 2 ** (-i * 0.4 + rng.uniform(-0.3, 0.3))))
        fit = fit_trend(records, method="regression")
        xs = [date_to_months(r.date) for r in records]
        ys = [math.log2(r.total) for r in records]
        slope, intercept, r2 = regression_oracle(xs, ys)
        assert fit.slope == pytest.approx(slope, rel=1e-9)
        assert fit.intercept == pytest.approx(intercept, rel=1e-9)
        assert fit.r_squared == pytest.approx(r2, rel=1e-9)
        assert 0 < fit.r_squared < 1

    def test_accepts_frontier(self):
        fit = fit_trend(frontier(self.synthetic(13.0)), method="endpoints")
        assert fit.doubling_months == pytest.approx(13.0, rel=1e-9)

    def test_input_order_irrelevant(self):
        records = self.synthetic(10.0)
        shuffled = list(records)
        random.Random(3).shuffle(shuffled)
        assert fit_trend(shuffled).slope == fit_trend(records).slope

    def test_threshold_mismatch_rejected(self):
        # before, a fit through records at two thresholds printed a doubling time
        a = rec("a", datetime.date(2012, 1, 1), total_compute=4e17)
        b = EfficiencyRecord(name="b", date=datetime.date(2014, 1, 1),
                             threshold=Threshold("top5", 0.9), total_compute=1e17)
        for records in ([a, b], [b, a], Frontier(records=(a, b))):
            with pytest.raises(TrendError, match="^a and b target different thresholds"):
                fit_trend(records)

    def test_needs_two_records(self):
        with pytest.raises(TrendError, match="at least two"):
            fit_trend([rec("a")])

    def test_needs_two_distinct_dates(self):
        a = rec("a", datetime.date(2015, 1, 1), total_compute=2e17)
        b = rec("b", datetime.date(2015, 1, 1), total_compute=1e17)
        with pytest.raises(TrendError, match="distinct dates"):
            fit_trend([a, b])

    def test_unknown_method(self):
        with pytest.raises(TrendError, match="unknown fit method"):
            fit_trend(self.synthetic(13.0), method="spline")

    def test_flat_trend_rejected(self):
        a = rec("a", datetime.date(2015, 1, 1), total_compute=1e17)
        b = rec("b", datetime.date(2016, 1, 1), total_compute=1e17)
        with pytest.raises(TrendError, match="no change"):
            fit_trend([a, b], method="endpoints")

    def test_rising_compute_rejected(self):
        a = rec("a", datetime.date(2015, 1, 1), total_compute=1e17)
        b = rec("b", datetime.date(2016, 1, 1), total_compute=2e17)
        with pytest.raises(TrendError, match="rises"):
            fit_trend([a, b], method="endpoints")


class TestMooreFactor:
    def test_basic(self):
        assert moore_factor(24.0, 24.0) == 2.0
        assert moore_factor(48.0, 24.0) == 4.0

    def test_fractional(self):
        assert moore_factor(84.0, 24.0) == pytest.approx(2 ** 3.5)

    def test_rejects_bad_doubling(self):
        with pytest.raises(TrendError, match="doubling_months"):
            moore_factor(12.0, 0.0)

    @pytest.mark.parametrize("doubling", [math.inf, math.nan, True])
    def test_rejects_non_finite_doubling(self, doubling):
        with pytest.raises(TrendError, match="doubling_months must be positive and finite"):
            moore_factor(12.0, doubling)

    @pytest.mark.parametrize("period", [1e6, -1e6, math.nan])
    def test_rejects_factor_outside_float_range(self, period):
        with pytest.raises(TrendError, match="growth factor 2 \\*\\* .* is not a finite"):
            moore_factor(period, 24.0)

    def test_model_with_huge_period_raises_trend_error(self):
        with pytest.raises(TrendError, match="growth factor"):
            EffectiveComputeModel(period_months=1e6).factors_at(1e6)


class TestEffectiveCompute:
    def test_product(self):
        assert effective_compute([2.0, 3.0, 4.0]) == 24.0

    def test_empty_is_one(self):
        assert effective_compute([]) == 1.0

    @pytest.mark.parametrize("factors", [[0.0], [-1.0], [2.0, True], ["4"]])
    def test_rejects_bad_factors(self, factors):
        with pytest.raises(TrendError, match="positive"):
            effective_compute(factors)

    @pytest.mark.parametrize("factors", [[math.inf], [1e308, 1e308]])
    def test_rejects_non_finite_product(self, factors):
        with pytest.raises(TrendError, match="not a finite number"):
            effective_compute(factors)

    @pytest.mark.parametrize("factors", [[10**400], [2.0, 10**400, 3]])
    def test_int_too_large_for_a_float(self, factors):
        with pytest.raises(TrendError, match="^the product of the factors is not a finite number$"):
            effective_compute(factors)


class TestEffectiveComputeModel:
    def test_default_breakdown(self):
        model = EffectiveComputeModel()
        b = model.factors_at(model.period_months)
        assert b["hardware_factor"] == 8.0       # 2^(72/24)
        assert b["spending_factor"] == 37500.0
        assert b["efficiency_factor"] == 25.0
        assert b["total_factor"] == 7_500_000.0  # exact product

    def test_custom_model(self):
        model = EffectiveComputeModel(hardware_doubling_months=12.0, period_months=24.0,
                                      spending_factor=10.0, efficiency_factor=5.0)
        b = model.factors_at(model.period_months)
        assert b["hardware_factor"] == 4.0
        assert b["total_factor"] == 200.0

    def test_growth_within_the_period(self):
        model = EffectiveComputeModel()
        assert list(model.factors_at(0).values()) == [1.0, 1.0, 1.0, 1.0]
        half = model.factors_at(36)
        assert half["hardware_factor"] == pytest.approx(2 ** 1.5)
        assert half["spending_factor"] == pytest.approx(37500 ** 0.5)
        assert half["total_factor"] == pytest.approx(7_500_000 ** 0.5)

    @pytest.mark.parametrize("months", [-1.0, 72.5, math.nan, math.inf])
    def test_months_outside_the_period_rejected(self, months):
        # a huge factor grown past its period overflowed the float power
        model = EffectiveComputeModel(spending_factor=1e300)
        with pytest.raises(TrendError, match=r"^months must be in \[0, 72\], got "):
            model.factors_at(months)

    def test_rejects_non_positive(self):
        with pytest.raises(TrendError):
            EffectiveComputeModel(spending_factor=0.0)

    @pytest.mark.parametrize("field", ["hardware_doubling_months", "spending_factor",
                                       "efficiency_factor", "period_months"])
    def test_rejects_non_finite(self, field):
        with pytest.raises(TrendError, match=f"^{field} must be positive and finite$"):
            EffectiveComputeModel(**{field: math.inf})


class TestFindRecord:
    def test_finds_first_with_name(self):
        a, b = rec("a"), rec("b", total_compute=5.0)
        assert find_record([a, b, rec("b")], "b") is b

    def test_unknown_name_lists_known(self):
        with pytest.raises(TrendError, match="^no record named 'c'; known records: a, b$"):
            find_record([rec("a"), rec("b")], "c")


class TestUnitInvariance:
    @pytest.mark.parametrize("scale", [1e-6, 3.7, 1e9])
    def test_scaling_preserves_ratio_outputs(self, scale):
        rng = random.Random(1234)
        records = random_records(rng, max_records=10)
        while len(records) < 3:
            records = random_records(rng, max_records=10)
        scaled = [
            EfficiencyRecord(name=r.name, date=r.date, threshold=r.threshold,
                             total_compute=r.total * scale)
            for r in records
        ]
        base_factor = efficiency_factor(records[0], records[1]).factor
        scaled_factor = efficiency_factor(scaled[0], scaled[1]).factor
        assert scaled_factor == pytest.approx(base_factor, rel=1e-12)
        assert frontier(scaled).names == frontier(records).names
        try:
            base_fit = fit_trend(frontier(records))
            scaled_fit = fit_trend(frontier(scaled))
        except TrendError:
            return  # single-point or flat frontiers have no trend either way
        assert scaled_fit.doubling_months == pytest.approx(
            base_fit.doubling_months, rel=1e-9)
