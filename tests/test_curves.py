"""Learning curves: parsing, thresholds, compute attribution, dominance."""
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algoeff.curves as curves_mod
from algoeff.curves import (
    BACKWARD_MULTIPLIER,
    IMAGES_PER_EPOCH,
    ComputeCurve,
    CurveError,
    DominanceResult,
    LearningCurve,
    Threshold,
    ThresholdNotReached,
    compute_to_threshold,
    dominance,
    finite_product,
    epochs_to_threshold,
    parse_curve,
    positive_finite,
    to_compute_curve,
    training_compute,
)
from algoeff.curves import _check_series

from _generators import random_curve_pair
from _oracles import dominance_oracle, first_bad_point_oracle

GOOD_CSV = """\
# demo curve
epoch,top5_accuracy
1,0.30
2,0.55
5,0.79
9,0.80
"""

GOOD_CSV_FLOPS = """\
epoch,top5_accuracy,cumulative_flops
1,0.30,1.0e15
2,0.55,2.5e15
3,0.80,3.0e15
"""


def mk_curve(epochs, accs, flops=None, metric="top5", name="c"):
    return LearningCurve(name=name, metric=metric, epochs=tuple(epochs),
                         accuracies=tuple(accs), cumulative_flops=flops)


class TestConstants:
    def test_images_per_epoch(self):
        assert IMAGES_PER_EPOCH == 1.28e6

    def test_backward_multiplier(self):
        assert BACKWARD_MULTIPLIER == 3.0


class TestPositiveFinite:
    @pytest.mark.parametrize("v", [1, 2.5, 5e-324, 1e308, 1.7976931348623157e308, 10**308])
    def test_accepts(self, v):
        assert positive_finite(v)

    @pytest.mark.parametrize("v", [0, 0.0, -1, -1e-300, math.nan, math.inf, -math.inf,
                                   10**400, 2**1024, True, False, "3", None, [1.0]])
    def test_rejects(self, v):
        assert not positive_finite(v)


class TestFiniteProduct:
    def test_product_in_order(self):
        assert finite_product((("a", 3), ("b", 0.5), ("c", 4.0))) == 6.0

    @pytest.mark.parametrize("v", [math.inf, 10**400])
    def test_too_large_means_not_finite(self, v):
        with pytest.raises(CurveError, match="^the product of the factors is not a finite"):
            finite_product((("a", 2.0), ("b", v)))

    def test_underflow_to_zero_is_rejected(self):
        with pytest.raises(CurveError, match="^the product of the factors is not a positive"):
            finite_product((("a", 1e-200), ("b", 1e-200)))

    @pytest.mark.parametrize("v", [0, -1.0, math.nan, True, "4"])
    def test_names_the_bad_factor(self, v):
        with pytest.raises(ValueError, match="^where: b must be positive"):
            finite_product((("a", 2.0), ("b", v)), ValueError, "where: ")


class TestThreshold:
    def test_defaults(self):
        t = Threshold()
        assert t.metric == "top5"
        assert t.value == 0.791

    def test_value_coerced_to_float(self):
        assert isinstance(Threshold("top1", 1).value, float)

    @pytest.mark.parametrize("value", [0.0, -0.1, 1.0001, "high", True, None])
    def test_rejects_bad_values(self, value):
        with pytest.raises(CurveError):
            Threshold("top5", value)

    def test_one_is_allowed(self):
        assert Threshold("top5", 1.0).value == 1.0

    def test_rejects_empty_metric(self):
        with pytest.raises(CurveError):
            Threshold("", 0.5)


class TestLearningCurve:
    def test_normalizes_to_tuples(self):
        c = mk_curve([1, 2], [0.1, 0.2])
        assert c.epochs == (1, 2)
        assert c.accuracies == (0.1, 0.2)

    def test_final_and_best_accuracy(self):
        c = mk_curve([1, 2, 3], [0.1, 0.5, 0.4])
        assert c.best_accuracy == 0.5

    def test_rejects_empty(self):
        with pytest.raises(CurveError, match="no data rows"):
            mk_curve([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(CurveError, match="accuracies"):
            mk_curve([1, 2], [0.1])

    @pytest.mark.parametrize("epochs", [[0, 1], [1, 1], [2, 1], [1.5, 2], [True, 2]])
    def test_rejects_bad_epochs(self, epochs):
        with pytest.raises(CurveError):
            mk_curve(epochs, [0.1, 0.2])

    def test_epochs_may_skip(self):
        assert mk_curve([1, 5, 90], [0.1, 0.2, 0.3]).epochs == (1, 5, 90)

    @pytest.mark.parametrize("acc", [-0.01, 1.01, 10**400])
    def test_rejects_out_of_range_accuracy(self, acc):
        with pytest.raises(CurveError, match="outside"):
            mk_curve([1], [acc])

    def test_rejects_flops_length_mismatch(self):
        with pytest.raises(CurveError, match="compute values"):
            mk_curve([1, 2], [0.1, 0.2], flops=(1.0,))

    @pytest.mark.parametrize("flops", [(0.0, 1.0), (2.0, 1.0), (1.0, 1.0), (-1.0, 2.0),
                                       (1.0, math.nan), (math.nan, 1.0), (1.0, math.inf),
                                       (1.0, 10**400)])
    def test_rejects_non_increasing_flops(self, flops):
        with pytest.raises(CurveError, match="strictly"):
            mk_curve([1, 2], [0.1, 0.2], flops=flops)

    def test_rejects_empty_metric(self):
        with pytest.raises(CurveError, match="metric"):
            mk_curve([1], [0.1], metric="")

    def test_rejects_epoch_too_large_for_a_float(self):
        big = 10**400  # the first of two such epochs is named
        with pytest.raises(CurveError, match=f"^c epoch {big}: epoch {big} is too large for a float$"):
            mk_curve([1, big, big * 10], [0.1, 0.2, 0.3])


class TestParseCurve:
    def test_basic(self):
        c = parse_curve(GOOD_CSV, name="demo")
        assert c.name == "demo"
        assert c.metric == "top5"
        assert c.epochs == (1, 2, 5, 9)
        assert c.accuracies == (0.30, 0.55, 0.79, 0.80)
        assert c.cumulative_flops is None

    def test_metric_from_header(self):
        c = parse_curve("epoch,top1_accuracy\n1,0.5\n")
        assert c.metric == "top1"

    def test_flops_column(self):
        c = parse_curve(GOOD_CSV_FLOPS)
        assert c.cumulative_flops == (1.0e15, 2.5e15, 3.0e15)

    def test_comments_and_blanks_skipped(self):
        text = "\n# a\n\nepoch,top5_accuracy\n# b\n1,0.5\n\n2,0.6\n"
        assert parse_curve(text).epochs == (1, 2)

    def test_whitespace_tolerated(self):
        c = parse_curve("epoch , top5_accuracy\n 1 , 0.5 \n")
        assert c.accuracies == (0.5,)

    def test_percent_mode(self):
        c = parse_curve("epoch,top5_accuracy\n1,25.0\n2,79.1\n", percent=True)
        assert c.accuracies[0] == 0.25
        assert c.accuracies[1] == pytest.approx(0.791)

    def test_percent_out_of_range(self):
        with pytest.raises(CurveError, match=r"^curve line 2: accuracy 1\.01 outside \[0, 1\]$"):
            parse_curve("epoch,top5_accuracy\n1,101.0\n", percent=True)

    @pytest.mark.parametrize("row,message", [
        ("3,x", "accuracy 'x' is not a number"),
        ("3,150", "accuracy 1.5 outside [0, 1]"),
        ("2,80", "epoch 2 not greater than 2"),
    ])
    def test_percent_bad_row_names_its_line(self, row, message):
        text = f"epoch,top5_accuracy\n# comment\n1,25\n2,50\n{row}\n4,90\n"
        with pytest.raises(CurveError) as raised:
            parse_curve(text, percent=True)
        assert str(raised.value) == f"curve line 5: {message}"

    def test_fraction_out_of_range_names_line(self):
        with pytest.raises(CurveError, match="line 2"):
            parse_curve("epoch,top5_accuracy\n1,1.5\n")

    def test_missing_header(self):
        with pytest.raises(CurveError, match="no header"):
            parse_curve("# only comments\n")

    @pytest.mark.parametrize("header", [
        "time,top5_accuracy",
        "epoch,top5",
        "epoch,_accuracy",
        "epoch",
        "epoch,top5_accuracy,flops",
        "epoch,top5_accuracy,cumulative_flops,extra",
    ])
    def test_bad_headers(self, header):
        with pytest.raises(CurveError, match="line 1"):
            parse_curve(header + "\n1,0.5\n")

    @pytest.mark.parametrize("line,message", [
        ("time," + "a" * 55, "expected header 'epoch,<metric>_accuracy[,cumulative_flops]', "
                            "got 'time," + "a" * 55 + "'"),
        ("time," + "a" * 56, "expected header 'epoch,<metric>_accuracy[,cumulative_flops]', "
                            "got 'time," + "a" * 55 + "'..."),
        ("epoch," + "b" * 60, "second column must be named '<metric>_accuracy', "
                             "got '" + "b" * 60 + "'"),
        ("epoch," + "b" * 61, "second column must be named '<metric>_accuracy', "
                             "got '" + "b" * 60 + "'..."),
        ("epoch,top5_accuracy," + "c" * 60, "third column must be named 'cumulative_flops', "
                                           "got '" + "c" * 60 + "'"),
        ("epoch,top5_accuracy," + "c\x00" * 40, "third column must be named 'cumulative_flops', "
                                               "got '" + "c\\x00" * 30 + "'..."),
    ])
    def test_header_quotes_at_most_sixty_characters(self, line, message):
        with pytest.raises(CurveError) as raised:
            parse_curve(line + "\n1,0.5\n", name="c")
        assert str(raised.value) == f"c line 1: {message}"

    def test_wrong_field_count_names_line(self):
        with pytest.raises(CurveError, match="line 3"):
            parse_curve("epoch,top5_accuracy\n1,0.5\n2,0.6,9\n")

    def test_non_integer_epoch_names_line(self):
        with pytest.raises(CurveError, match="line 2.*not an integer"):
            parse_curve("epoch,top5_accuracy\n1.5,0.5\n")

    def test_non_number_accuracy_names_line(self):
        with pytest.raises(CurveError, match="line 2.*not a number"):
            parse_curve("epoch,top5_accuracy\n1,high\n")

    def test_non_increasing_epoch_names_line(self):
        with pytest.raises(CurveError, match="line 3"):
            parse_curve("epoch,top5_accuracy\n2,0.5\n2,0.6\n")

    def test_zero_epoch_rejected(self):
        with pytest.raises(CurveError, match="not positive"):
            parse_curve("epoch,top5_accuracy\n0,0.5\n")

    def test_bad_flops_value(self):
        with pytest.raises(CurveError, match="^curve line 2: compute must be finite, positive"):
            parse_curve("epoch,top5_accuracy,cumulative_flops\n1,0.5,fast\n")

    def test_non_increasing_flops(self):
        with pytest.raises(CurveError, match="strictly increasing"):
            parse_curve("epoch,top5_accuracy,cumulative_flops\n1,0.5,2e15\n2,0.6,1e15\n")

    @pytest.mark.parametrize("rows,line", [
        ("1,0.5,nan\n2,0.6,2e15\n", 2),
        ("1,0.5,1e15\n2,0.6,inf\n", 3),
        ("1,0.5,1e15\n\n# gap\n2,0.6,1e400\n", 5),
        ("1,0.5,1e15\n2,nan,2e15\n", 3),
    ])
    def test_non_finite_values_name_line(self, rows, line):
        with pytest.raises(CurveError, match=f"^c line {line}: "):
            parse_curve("epoch,top5_accuracy,cumulative_flops\n" + rows, name="c")

    @pytest.mark.parametrize("header,rows,message", [
        ("", "1,1.5\n0,0.5\n", r"^c line 2: accuracy 1\.5 outside \[0, 1\]$"),
        ("", "1,0.5\n3,0.6\n2,0.7\n", "^c line 4: epoch 2 not greater than 3$"),
        ("", "0,0.5\n", "^c line 2: epoch 0 is not positive$"),
        ("", "2,0.5\n2,1.5\n", "^c line 3: accuracy"),  # same line: accuracy first
        (",cumulative_flops", "1,0.5,nan\n0,1.5,1\n", "^c line 2: compute"),
        (",cumulative_flops", "1,0.5,1\n2,0.6,2\n1,1.5,0\n", "^c line 4: accuracy"),
        ("", "1,1.5\n2,x\n", r"^c line 2: accuracy 1\.5 outside \[0, 1\]$"),
        ("", "2,0.5\n1,0.6\n3.5,0.7\n", "^c line 3: epoch 1 not greater than 2$"),
        (",cumulative_flops", "1,0.5,-1\n2,0.6,abc\n", "^c line 2: compute"),
    ])
    def test_first_bad_line_in_file_order(self, header, rows, message):
        with pytest.raises(CurveError, match=message):
            parse_curve("epoch,top5_accuracy" + header + "\n" + rows, name="c")

    # int() and float() read these as 20, 2, 0.81 and 2e15; a curve file takes ASCII decimals only
    @pytest.mark.parametrize("header,rows,message", [
        ("", "1,0.5\n2_0,0.6\n", "^c line 3: epoch '2_0' is not an integer$"),
        ("", "1,0.5\n\uff12,0.6\n", "^c line 3: epoch '\uff12' is not an integer$"),
        ("", "1,0.5\n2,0.8_1\n", "^c line 3: accuracy '0.8_1' is not a number$"),
        ("", "1,0.5\n2,0.\u0668\n", "^c line 3: accuracy '0.\u0668' is not a number$"),
        (",cumulative_flops", "1,0.5,1e15\n2,0.6,2_0e15\n",
         "^c line 3: compute must be finite"),
        ("", "1,-1\n2_0,0.6\n", "^c line 2: accuracy -.* outside"),  # still file order
    ])
    @pytest.mark.parametrize("percent", [False, True])
    def test_numbers_are_ascii_decimals(self, header, rows, message, percent):
        if percent:
            rows = rows.replace("0.5", "50").replace("0.6", "60")
        with pytest.raises(CurveError, match=message):
            parse_curve("epoch,top5_accuracy" + header + "\n" + rows, name="c", percent=percent)

    def test_a_plain_file_is_checked_once(self, monkeypatch):
        # the "_" of the column names sends no file down the value-by-value path
        calls = []
        monkeypatch.setattr(curves_mod, "_check_series",
                            lambda *a: calls.append(a) or _check_series(*a))
        parse_curve("# demo\nepoch,top5_accuracy,cumulative_flops\n1,0.5,1e15\n2,0.6,2e15\n")
        assert len(calls) == 1

    def test_non_ascii_outside_numbers_is_read(self):
        curve = parse_curve("# caf\u00e9, \u2116 1\nepoch,top5_accuracy\n1,0.5\n2,0.6\n")
        assert (curve.epochs, curve.accuracies) == ((1, 2), (0.5, 0.6))


class TestTrainingCompute:
    def test_formula(self):
        # 3 passes-worth per image, 90 epochs, AlexNet-scale per-image cost
        assert training_compute(7.7e8, 90) == 3.0 * 90 * 7.7e8 * 1.28e6

    def test_custom_arguments(self):
        assert training_compute(2.0, 10, images_per_epoch=100,
                                backward_multiplier=1.0) == 2000.0

    @pytest.mark.parametrize("kwargs", [
        {"flops_per_image": 0},
        {"epochs": 0},
        {"images_per_epoch": -1},
        {"backward_multiplier": 0},
    ])
    def test_rejects_non_positive(self, kwargs):
        args = {"flops_per_image": 1.0, "epochs": 1.0}
        args.update(kwargs)
        with pytest.raises(CurveError, match="must be positive"):
            training_compute(**args)

    @pytest.mark.parametrize("kwargs", [
        {"images_per_epoch": math.inf},
        {"flops_per_image": 1e300, "images_per_epoch": 1e300},
    ])
    def test_rejects_non_finite_total(self, kwargs):
        args = {"flops_per_image": 1.0, "epochs": 1.0}
        args.update(kwargs)
        with pytest.raises(CurveError, match="not a finite number"):
            training_compute(**args)

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 10**400},
        {"flops_per_image": "1e9"},
        {"backward_multiplier": None},
    ])
    def test_rejects_huge_and_mistyped_arguments(self, kwargs):
        args = {"flops_per_image": 1.0, "epochs": 1.0}
        args.update(kwargs)
        with pytest.raises(CurveError, match="training_compute: "):
            training_compute(**args)


class TestEpochsToThreshold:
    def test_first_crossing_wins(self):
        c = mk_curve([1, 2, 5, 9], [0.3, 0.55, 0.79, 0.80])
        assert epochs_to_threshold(c, Threshold("top5", 0.79)) == 5

    def test_exact_equality_counts(self):
        c = mk_curve([1, 2], [0.5, 0.791])
        assert epochs_to_threshold(c) == 2

    def test_no_interpolation_between_rows(self):
        # accuracy passes 0.6 "between" epochs 1 and 5; crossing is epoch 5
        c = mk_curve([1, 5], [0.5, 0.7])
        assert epochs_to_threshold(c, Threshold("top5", 0.6)) == 5

    def test_metric_mismatch(self):
        c = mk_curve([1], [0.9], metric="top1")
        with pytest.raises(CurveError, match="does not match"):
            epochs_to_threshold(c, Threshold("top5", 0.5))

    def test_not_reached_raises_with_details(self):
        c = mk_curve([1, 2], [0.5, 0.6], name="slow")
        with pytest.raises(ThresholdNotReached) as e:
            epochs_to_threshold(c, Threshold("top5", 0.791))
        assert e.value.name == "slow"
        assert e.value.best == 0.6
        assert e.value.threshold.value == 0.791
        assert "never reaches" in str(e.value)

    def test_not_a_curve_error_subclass(self):
        # failing to reach a threshold is a result, not malformed data
        assert not issubclass(ThresholdNotReached, ValueError)


class TestComputeCurve:
    def test_validation_mirrors_learning_curve(self):
        with pytest.raises(CurveError):
            ComputeCurve(name="c", metric="top5", compute=(), accuracies=())
        with pytest.raises(CurveError):
            ComputeCurve(name="c", metric="top5", compute=(2.0, 1.0),
                         accuracies=(0.1, 0.2))
        with pytest.raises(CurveError):
            ComputeCurve(name="c", metric="top5", compute=(1.0,), accuracies=(1.5,))

    @pytest.mark.parametrize("compute,point", [
        ((1.0, math.nan), 2), ((math.nan, 1.0), 1), ((1.0, math.inf), 2),
        ((1.0, 10**400), 2), ((10**400, 10**401), 1),
    ])
    def test_rejects_non_finite_compute(self, compute, point):
        with pytest.raises(CurveError, match=f"^c point {point}: compute must be finite"):
            ComputeCurve(name="c", metric="top5", compute=compute, accuracies=(0.1, 0.2))

    def test_span_properties(self):
        c = ComputeCurve(name="c", metric="top5", compute=(1.0, 10.0),
                         accuracies=(0.1, 0.2))
        assert c.min_compute == 1.0
        assert c.max_compute == 10.0

    def test_accuracy_at_knots_is_exact(self):
        c = ComputeCurve(name="c", metric="top5", compute=(1.0, 10.0, 100.0),
                         accuracies=(0.1, 0.7, 0.2))
        assert c.accuracy_at(1.0) == 0.1
        assert c.accuracy_at(10.0) == 0.7
        assert c.accuracy_at(100.0) == 0.2

    def test_interpolation_is_linear_in_log_compute(self):
        c = ComputeCurve(name="c", metric="top5", compute=(1.0, 100.0),
                         accuracies=(0.2, 0.6))
        # geometric midpoint of the budgets is the arithmetic midpoint
        # of the accuracies
        assert c.accuracy_at(10.0) == pytest.approx(0.4)

    def test_out_of_span_raises(self):
        c = ComputeCurve(name="c", metric="top5", compute=(1.0, 2.0),
                         accuracies=(0.1, 0.2))
        with pytest.raises(CurveError, match="outside curve span"):
            c.accuracy_at(0.5)
        with pytest.raises(CurveError, match="outside curve span"):
            c.accuracy_at(2.5)


class TestToComputeCurve:
    def test_analytic_compute(self):
        c = mk_curve([1, 2, 4], [0.1, 0.2, 0.3])
        cc = to_compute_curve(c, flops_per_image=1e9)
        per_epoch = 3.0 * 1e9 * 1.28e6
        assert cc.compute == (per_epoch, 2 * per_epoch, 4 * per_epoch)
        assert cc.accuracies == c.accuracies

    def test_cumulative_column_wins(self):
        c = mk_curve([1, 2], [0.1, 0.2], flops=(5.0, 9.0))
        cc = to_compute_curve(c, flops_per_image=1e9)
        assert cc.compute == (5.0, 9.0)

    def test_missing_flops_per_image(self):
        c = mk_curve([1], [0.1])
        with pytest.raises(CurveError, match="flops_per_image is required"):
            to_compute_curve(c)

    def test_custom_multipliers(self):
        c = mk_curve([2], [0.1])
        cc = to_compute_curve(c, flops_per_image=10.0, images_per_epoch=100.0,
                              backward_multiplier=1.0)
        assert cc.compute == (2000.0,)


class TestComputeToThreshold:
    def test_analytic(self):
        c = mk_curve([1, 2, 5], [0.3, 0.6, 0.9])
        total = compute_to_threshold(c, Threshold("top5", 0.6), flops_per_image=1e9)
        assert total == training_compute(1e9, 2)

    def test_recorded_cumulative_wins(self):
        c = mk_curve([1, 2, 5], [0.3, 0.6, 0.9], flops=(1.0, 7.0, 11.0))
        assert compute_to_threshold(c, Threshold("top5", 0.6)) == 7.0

    def test_missing_flops_per_image(self):
        c = mk_curve([1], [0.9])
        with pytest.raises(CurveError, match="required"):
            compute_to_threshold(c, Threshold("top5", 0.5))

    def test_threshold_not_reached_propagates(self):
        c = mk_curve([1], [0.1])
        with pytest.raises(ThresholdNotReached):
            compute_to_threshold(c, Threshold("top5", 0.9), flops_per_image=1.0)


def cc(compute, accs, name="x"):
    return ComputeCurve(name=name, metric="top5", compute=tuple(compute),
                        accuracies=tuple(accs))


class TestDominance:
    def test_clear_domination(self):
        a = cc((1.0, 10.0, 100.0), (0.5, 0.6, 0.7), "a")
        b = cc((1.0, 10.0, 100.0), (0.4, 0.5, 0.6), "b")
        r = dominance(a, b)
        assert r.relation == "a_dominates"
        assert r.overlap == (1.0, 100.0)
        assert r.witness == (1.0, None)

    def test_b_dominates_mirrors(self):
        a = cc((1.0, 100.0), (0.4, 0.5), "a")
        b = cc((1.0, 100.0), (0.5, 0.6), "b")
        r = dominance(a, b)
        assert r.relation == "b_dominates"
        assert r.witness == (None, 1.0)

    def test_equivalent_on_identical(self):
        a = cc((1.0, 10.0), (0.5, 0.6), "a")
        b = cc((1.0, 10.0), (0.5, 0.6), "b")
        r = dominance(a, b)
        assert r.relation == "equivalent"
        assert r.witness is None

    def test_crossing_curves_incomparable_with_witnesses(self):
        a = cc((1.0, 100.0), (0.2, 0.8), "a")
        b = cc((1.0, 100.0), (0.6, 0.4), "b")
        r = dominance(a, b)
        assert r.relation == "incomparable"
        wa, wb = r.witness
        assert a.accuracy_at(wa) > b.accuracy_at(wa)
        assert a.accuracy_at(wb) < b.accuracy_at(wb)

    def test_disjoint_spans(self):
        a = cc((1.0, 2.0), (0.1, 0.2), "a")
        b = cc((10.0, 20.0), (0.1, 0.2), "b")
        r = dominance(a, b)
        assert r == DominanceResult(relation="incomparable", overlap=None, witness=None)

    def test_touching_spans_compare_at_single_point(self):
        a = cc((1.0, 10.0), (0.1, 0.5), "a")
        b = cc((10.0, 20.0), (0.4, 0.6), "b")
        r = dominance(a, b)
        assert r.overlap == (10.0, 10.0)
        assert r.relation == "a_dominates"

    def test_domination_needs_strict_lead_somewhere(self):
        # equal at one end, ahead at the other: still dominates
        a = cc((1.0, 10.0), (0.5, 0.7), "a")
        b = cc((1.0, 10.0), (0.5, 0.6), "b")
        assert dominance(a, b).relation == "a_dominates"

    def test_interior_knot_decides(self):
        # equal at both shared endpoints, b dips in the middle
        a = cc((1.0, 100.0), (0.5, 0.7), "a")
        b = cc((1.0, 10.0, 100.0), (0.5, 0.4, 0.7), "b")
        assert dominance(a, b).relation == "a_dominates"

    def test_metric_mismatch(self):
        a = cc((1.0, 2.0), (0.1, 0.2))
        b = ComputeCurve(name="b", metric="top1", compute=(1.0, 2.0),
                         accuracies=(0.1, 0.2))
        with pytest.raises(CurveError, match="cannot compare"):
            dominance(a, b)

    def test_antisymmetry_on_random_pairs(self):
        swap = {"a_dominates": "b_dominates", "b_dominates": "a_dominates",
                "equivalent": "equivalent", "incomparable": "incomparable"}
        rng = random.Random(5522)
        for _ in range(60):
            a, b = random_curve_pair(rng)
            fwd = dominance(a, b)
            rev = dominance(b, a)
            assert rev.relation == swap[fwd.relation]
            assert rev.overlap == fwd.overlap

    def test_random_pairs_match_grid_oracle(self):
        rng = random.Random(6633)
        for i in range(120):
            a, b = random_curve_pair(rng)
            assert dominance(a, b).relation == dominance_oracle(a, b), f"pair {i}"

    def test_witness_budgets_are_within_overlap(self):
        rng = random.Random(7744)
        checked = 0
        for _ in range(80):
            a, b = random_curve_pair(rng)
            r = dominance(a, b)
            if r.witness is None:
                continue
            lo, hi = r.overlap
            for w in r.witness:
                if w is not None:
                    assert lo <= w <= hi
                    checked += 1
        assert checked > 10


_FLOAT_MAX = sys.float_info.max
# Numbers a series built in Python can hold, most of which break a rule at some point.
_ODD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**1024,
                                0, 1, -1, 0.0, -0.0, 1.0, 2.5, True, _FLOAT_MAX, 5e-324])


@st.composite
def _rising(draw, n, start, steps, odd):
    """n values from start by steps that are mostly positive; some replaced by odd ones."""
    values, v = [], start
    for _ in range(n):
        v = v + draw(steps)
        values.append(draw(odd) if draw(st.integers(0, 9)) == 0 else v)
    return values


@st.composite
def curve_series(draw):
    """(epochs or None, accuracies, compute or None, lines or None) of one length."""
    n = draw(st.integers(1, 8))
    accuracies = [draw(_ODD_NUMBERS) if draw(st.integers(0, 14)) == 0
                  else draw(st.floats(0.0, 1.0)) for _ in range(n)]
    epochs = draw(st.none() | _rising(n, draw(st.sampled_from([-1, 0, 0, 0, 2**1024 - 3])),
                                      st.integers(-1, 3),
                                      st.one_of(_ODD_NUMBERS, st.sampled_from(
                                          [int(_FLOAT_MAX), int(_FLOAT_MAX) + 1, 2**1030]))))
    compute = draw(st.none() | _rising(n, draw(st.sampled_from([-1, 0, 0.0, 1.0, 1e300])),
                                       st.sampled_from([1, 3.0, 1e300, 0, -2.0, 1e-300]),
                                       st.sampled_from([_FLOAT_MAX, math.nan, math.inf, 10**400,
                                                        1, True, 0.5])))
    lines = draw(st.none() | st.just(list(range(2, 2 + 2 * n, 2))))
    return epochs, accuracies, compute, lines


@st.composite
def good_curve(draw) -> LearningCurve:
    n = draw(st.integers(1, 10))
    epochs = sorted(draw(st.sets(st.integers(1, 500), min_size=n, max_size=n)))
    accuracies = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    flops = draw(st.none() | st.sets(st.floats(1.0, 1e20), min_size=n, max_size=n).map(sorted))
    return mk_curve(epochs, accuracies, flops)


class TestOneCheckLoop:
    """_check_series walks the points once and agrees with a search per rule."""

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(curve_series())
    def test_first_bad_point_matches_per_rule_oracle(self, series):
        epochs, accuracies, compute, lines = series
        expected = first_bad_point_oracle("c", epochs, accuracies, compute, lines)
        if expected is None:
            _check_series("c", "top5", epochs, accuracies, compute, lines)
            return
        with pytest.raises(CurveError) as raised:
            _check_series("c", "top5", epochs, accuracies, compute, lines)
        assert str(raised.value) == expected

    @pytest.mark.parametrize("make,message", [
        (lambda: ComputeCurve("c", "top5", ("x",), (0.5,)),
         "c point 1: compute must be finite, positive and strictly increasing"),
        (lambda: ComputeCurve("c", "top5", (1.0, 2.0), (0.5, [1])),
         "c point 2: accuracy [1] is not a number"),
        (lambda: LearningCurve("c", "top5", (1,), (None,)),
         "c epoch 1: accuracy None is not a number"),
        (lambda: LearningCurve("c", "top5", (1, 2), (0.5, "x")),
         "c epoch 2: accuracy 'x' is not a number"),
        (lambda: LearningCurve("c", "top5", (1, 2), (0.5, 0.6), (1.0, None)),
         "c epoch 2: compute must be finite, positive and strictly increasing"),
        (lambda: LearningCurve("c", "top5", (1, "2"), (0.5, 0.6)),
         "c epoch 2: epoch '2' is not an integer"),
    ])
    def test_non_number_is_a_curve_error_at_its_point(self, make, message):
        with pytest.raises(CurveError) as raised:
            make()
        assert str(raised.value) == message

    def test_largest_float_is_a_good_last_point(self):
        assert ComputeCurve("c", "top5", (1, _FLOAT_MAX), (0.5, 0.6)).compute == (1.0, _FLOAT_MAX)
        assert LearningCurve("c", "top5", (1, int(_FLOAT_MAX)), (0.5, 0.6)).epochs[-1] == _FLOAT_MAX

    def test_strings_float_accepts_are_converted(self):
        c = LearningCurve("c", "top5", (1, 2), ("0.5", "0.6"), ("1e15", "2e15"))
        assert c.accuracies == (0.5, 0.6) and c.cumulative_flops == (1e15, 2e15)


class TestOneCrossing:
    """compute_to_threshold prices the row that epochs_to_threshold finds."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(good_curve(), st.floats(0.01, 1.0), st.sampled_from([1.0, 7.5e8, 3.1e9]))
    def test_compute_to_threshold_is_the_compute_curve_at_the_crossing(self, curve, t, fpi):
        threshold = Threshold("top5", t)
        try:
            epoch = epochs_to_threshold(curve, threshold)
        except ThresholdNotReached:
            with pytest.raises(ThresholdNotReached):
                compute_to_threshold(curve, threshold, flops_per_image=fpi)
            return
        row = curve.epochs.index(epoch)
        assert (compute_to_threshold(curve, threshold, flops_per_image=fpi)
                == to_compute_curve(curve, flops_per_image=fpi).compute[row])


class TestPricedOnce:
    """An analytic curve checks its constants once and prices each row as training_compute."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(good_curve(), st.sampled_from([1, 7.5e8, 3.1e9, 1e-300, 1e300]),
           st.sampled_from([1, 1.28e6, 1e-10]), st.sampled_from([1, 3, 3.0, 0.5]))
    def test_rows_match_training_compute(self, curve, fpi, n, bm):
        curve = mk_curve(curve.epochs, curve.accuracies)  # analytic: no cumulative_flops
        try:
            expected = tuple(training_compute(fpi, e, n, bm) for e in curve.epochs)
        except CurveError as e:
            with pytest.raises(CurveError) as raised:
                to_compute_curve(curve, flops_per_image=fpi, images_per_epoch=n,
                                 backward_multiplier=bm)
            assert str(raised.value) == str(e)
            return
        got = to_compute_curve(curve, flops_per_image=fpi, images_per_epoch=n,
                               backward_multiplier=bm).compute
        assert got == expected

    def test_constants_checked_once(self, monkeypatch):
        import algoeff.curves as curves_mod
        calls = []

        def counting(*args):
            calls.append(args)
            return training_compute(*args)

        monkeypatch.setattr(curves_mod, "training_compute", counting)
        to_compute_curve(mk_curve(range(1, 9), [0.1] * 8), flops_per_image=1e9)
        assert len(calls) == 1

    def test_int_multiplier_overflow_is_a_curve_error(self):
        curve = LearningCurve("c", "top5", (1, 10**308), (0.5, 0.8))
        with pytest.raises(CurveError) as raised:
            to_compute_curve(curve, flops_per_image=1, backward_multiplier=3)
        assert str(raised.value) == (
            "training_compute: the product of the factors is not a finite number")

    @pytest.mark.parametrize("kwargs,message", [
        ({"flops_per_image": -1}, "flops_per_image must be positive, got -1"),
        ({"flops_per_image": 1, "images_per_epoch": 0},
         "images_per_epoch must be positive, got 0"),
    ])
    def test_bad_constant_messages(self, kwargs, message):
        with pytest.raises(CurveError) as raised:
            to_compute_curve(mk_curve([1, 2], [0.5, 0.8]), **kwargs)
        assert str(raised.value) == f"training_compute: {message}"
