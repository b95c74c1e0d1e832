"""End-to-end command line behavior: output, exit codes, file round trips."""
import argparse
import datetime
import gc
import hashlib
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import algoeff
from algoeff.archflops import GraphError, ShapeError, TensorShape, builtin_arch
import algoeff.cli as cli_mod
import algoeff.datasets as datasets_mod
import algoeff.trends as trends_mod
from algoeff.cli import _build_parser, main
from algoeff.curves import CurveError, ThresholdNotReached
from algoeff.datasets import DatasetError, load_imagenet_records
from algoeff.reports import fmt_compute
from algoeff.trends import (
    EfficiencyRecord,
    TrendError,
    fit_trend,
    frontier,
    records_from_json,
    records_to_json,
)

from _generators import arch_file_text, records_file_records
from _oracles import first_of_each_signature, records_json_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY_GRAPH = json.dumps({
    "name": "tiny",
    "default_input": {"c": 3, "h": 8, "w": 8},
    "nodes": [
        {"id": "fc", "kind": "linear", "params": {"out_features": 10},
         "inputs": ["input"]},
    ],
    "output": "fc",
})

CURVE_WITH_FLOPS = """epoch,top5_accuracy,cumulative_flops
1,0.5,1e15
2,0.8,2e15
"""


class TestFlops:
    def test_builtin_markdown(self, capsys):
        code, out, err = run(capsys, "flops", "AlexNet")
        assert code == 0 and err == ""
        assert "Per-image multiply-accumulates for AlexNet" in out
        assert "714,188,480" in out
        assert "conv2d,linear" in out

    def test_per_layer_lists_nodes(self, capsys):
        code, out, _ = run(capsys, "flops", "AlexNet", "--per-layer")
        assert code == 0
        assert "Per-layer counts for AlexNet" in out
        assert "1000x1x1" in out

    def test_flop2_doubles(self, capsys):
        code, out, _ = run(capsys, "flops", "AlexNet", "--count-unit", "flop2")
        assert code == 0
        assert "1,428,376,960" in out

    def test_include_bias_adds_ops(self, capsys):
        _, plain, _ = run(capsys, "flops", "AlexNet", "--format", "json")
        _, biased, _ = run(capsys, "flops", "AlexNet", "--include-bias",
                           "--format", "json")
        get = lambda text: int(json.loads(text)["tables"][0]["rows"][0][4].replace(",", ""))
        assert get(biased) > get(plain)

    def test_counted_kinds_restricts(self, capsys):
        _, conv_only, _ = run(capsys, "flops", "AlexNet",
                              "--counted-kinds", "conv2d", "--format", "json")
        rows = json.loads(conv_only)["tables"][0]["rows"]
        assert int(rows[0][4].replace(",", "")) < 714_188_480

    def test_unknown_counted_kind(self, capsys):
        code, _, err = run(capsys, "flops", "AlexNet", "--counted-kinds", "bogus")
        assert code == 2
        assert "unknown layer kinds" in err

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(TINY_GRAPH)
        code, out, _ = run(capsys, "flops", str(path))
        assert code == 0
        assert "1,920" in out

    def test_input_override(self, capsys):
        code, out, _ = run(capsys, "flops", "AlexNet", "--input", "3x448x448",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["tables"][0]["rows"][0][1] == "3x448x448"

    def test_input_override_can_invalidate(self, capsys):
        # a smaller canvas leaves too little for the fixed pooling target
        code, _, err = run(capsys, "flops", "AlexNet", "--input", "3x112x112")
        assert code == 2
        assert "larger than input" in err

    def test_unknown_arch(self, capsys):
        code, _, err = run(capsys, "flops", "LeNet")
        assert code == 2
        assert "unknown architecture" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "flops", "./no/such/file.json")
        assert code == 2
        assert err.startswith("algoeff:")

    def test_invalid_graph_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "flops", str(path))
        assert code == 2
        assert "not valid JSON" in err


class TestShapeInferenceOncePerCommand:
    """Validation, counting and the shape tables share one walk per input."""

    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(arch_file_text(builtin_arch("ResNet-50")))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("flops", "{file}", "--per-layer"),
        ("shapes", "{file}"),
        ("flops", "ResNet-50", "--per-layer"),
    ])
    def test_once_per_signature(self, capsys, node_shape_calls, graph_file, argv):
        # one walk, whose shape rule runs for 55 of ResNet-50's 175 nodes
        code, out, _ = run(capsys, *(a.format(file=graph_file) for a in argv))
        assert code == 0
        assert "2048x7x7" in out
        arch = builtin_arch("ResNet-50")
        assert node_shape_calls == first_of_each_signature(arch, arch.default_input)
        assert len(node_shape_calls) == 55

    def test_input_override_is_inferred_again(self, capsys, node_shape_calls, graph_file):
        code, out, _ = run(capsys, "flops", graph_file, "--per-layer",
                           "--input", "3x288x288", "--format", "csv")
        assert code == 0
        assert "head.pool,global_avgpool,2048x1x1" in out
        assert "2048x9x9" in out and "2048x7x7" not in out
        # the file is validated at its default input, then walked at the override
        arch = builtin_arch("ResNet-50")
        assert node_shape_calls == (first_of_each_signature(arch, arch.default_input)
                                    + first_of_each_signature(arch, TensorShape(3, 288, 288)))


class TestShapes:
    def test_lists_every_node_and_input(self, capsys):
        code, out, _ = run(capsys, "shapes", "AlexNet", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# Inferred shapes for AlexNet"
        assert lines[1] == "node,kind,shape"
        assert lines[2] == "input,input,3x224x224"
        assert lines[-1].endswith("1000x1x1")

    def test_input_override_propagates(self, capsys):
        code, out, _ = run(capsys, "shapes", "AlexNet", "--input", "3x448x448",
                           "--format", "csv")
        assert code == 0
        assert "input,input,3x448x448" in out


class TestAnalyze:
    def test_bundled_curve(self, capsys):
        code, out, _ = run(capsys, "analyze", "AlexNet", "alexnet",
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["tables"][0]["rows"][0]
        assert row[4] == "90"   # crossing epoch
        expected_total = 714_188_480.0 * 90 * 3.0 * 1.28e6
        assert row[6] == fmt_compute(expected_total, "table")

    def test_lower_threshold_crosses_earlier(self, capsys):
        code, out, _ = run(capsys, "analyze", "AlexNet", "alexnet",
                           "--threshold", "0.5", "--format", "json")
        assert code == 0
        row = json.loads(out)["tables"][0]["rows"][0]
        assert int(row[4]) < 90

    def test_metric_threshold_syntax(self, capsys):
        code, out, _ = run(capsys, "analyze", "AlexNet", "alexnet",
                           "--threshold", "top5:0.6", "--format", "json")
        assert code == 0
        row = json.loads(out)["tables"][0]["rows"][0]
        assert row[2] == "top5" and row[3] == "0.6"

    def test_threshold_never_reached_is_exit_3(self, capsys):
        code, _, err = run(capsys, "analyze", "AlexNet", "alexnet",
                           "--threshold", "0.999")
        assert code == 3
        assert "never reaches" in err

    def test_bad_threshold_string(self, capsys):
        code, _, err = run(capsys, "analyze", "AlexNet", "alexnet",
                           "--threshold", "high")
        assert code == 2
        assert "not a number" in err

    def test_percent_rejected_for_bundled(self, capsys):
        code, _, err = run(capsys, "analyze", "AlexNet", "alexnet", "--percent")
        assert code == 2
        assert "drop --percent" in err

    def test_non_finite_cumulative_compute(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("epoch,top5_accuracy,cumulative_flops\n1,0.5,1\n2,0.8,nan\n")
        code, out, err = run(capsys, "analyze", "AlexNet", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "must be finite" in err

    def test_infinite_images_per_epoch(self, capsys):
        code, out, err = run(capsys, "analyze", "AlexNet", "alexnet",
                             "--images-per-epoch", "inf")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "not a finite number" in err

    def test_unknown_curve(self, capsys):
        code, _, err = run(capsys, "analyze", "AlexNet", "lenet")
        assert code == 2
        assert "neither a readable csv path nor a bundled curve" in err

    @pytest.mark.parametrize("argv,entry,make", [
        (("analyze", "AlexNet", "alexnet"), "alexnet", Path.mkdir),
        (("analyze", "AlexNet", "alexnet"), "alexnet", lambda p: p.write_text("not a curve")),
        (("flops", "AlexNet"), "AlexNet", lambda p: p.write_text("not a graph")),
    ])
    def test_bundled_name_beside_an_entry_of_that_name(self, capsys, tmp_path, monkeypatch,
                                                       argv, entry, make):
        # only a / or the format's suffix makes an argument a file; before, a curve
        # argument read any entry of that name in the working directory
        expected = run(capsys, *argv)
        assert expected[0] == 0
        monkeypatch.chdir(tmp_path)
        make(tmp_path / entry)
        assert run(capsys, *argv) == expected

    def test_append_requires_date(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "AlexNet", "alexnet",
                           "--append-records", str(tmp_path / "r.json"))
        assert code == 1
        assert "--append-records requires --date" in err

    def test_append_bad_date(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "AlexNet", "alexnet",
                           "--date", "June 2012",
                           "--append-records", str(tmp_path / "r.json"))
        assert code == 2
        assert "not YYYY-MM-DD" in err

    @pytest.mark.parametrize("date", ["20210601", "2013-W01-1"])
    def test_append_other_iso_date_forms(self, capsys, tmp_path, date):
        path = tmp_path / "r.json"
        code, out, err = run(capsys, "analyze", "AlexNet", "alexnet", "--date", date,
                             "--append-records", str(path))
        assert (code, out, err) == (2, "", f"algoeff: --date '{date}' is not YYYY-MM-DD\n")
        assert not path.exists()

    def test_append_writes_json_dumps_bytes(self, capsys, tmp_path):
        before = records_json_oracle(records_file_records(random.Random(5), 2_000))
        path = tmp_path / "runs.json"
        path.write_text(before)
        code, _, err = run(capsys, "analyze", "AlexNet", "alexnet", "--date", "2021-06-01",
                           "--append-records", str(path))
        assert (code, err) == (0, "")
        saved = records_from_json(path.read_text())
        assert (len(saved), saved[-1].name, saved[-1].epochs) == (2_001, "AlexNet", 90.0)
        assert path.read_text() == records_json_oracle(saved)
        assert records_json_oracle(saved[:-1]) == before

    def test_append_then_factor_round_trip(self, capsys, tmp_path):
        records_file = tmp_path / "runs.json"
        code, _, _ = run(capsys, "analyze", "AlexNet", "alexnet",
                         "--date", "2012-06-01",
                         "--append-records", str(records_file))
        assert code == 0
        code, _, _ = run(capsys, "analyze", "GoogLeNet", "googlenet",
                         "--date", "2014-09-17",
                         "--append-records", str(records_file))
        assert code == 0

        saved = records_from_json(records_file.read_text())
        assert [r.name for r in saved] == ["AlexNet", "GoogLeNet"]
        assert saved[0].flops_per_image == 714_188_480.0
        assert saved[0].epochs == 90.0

        code, out, _ = run(capsys, "factor", "AlexNet", "GoogLeNet",
                           "--records", str(records_file), "--format", "json")
        assert code == 0
        row = json.loads(out)["tables"][0]["rows"][0]
        assert row[2] == "4.0"  # (714188480*90) / (2032600064*8) = 3.95

    def test_append_duplicate_name(self, capsys, tmp_path):
        records_file = tmp_path / "runs.json"
        run(capsys, "analyze", "AlexNet", "alexnet", "--date", "2012-06-01",
            "--append-records", str(records_file))
        code, _, err = run(capsys, "analyze", "AlexNet", "alexnet",
                           "--date", "2012-06-01",
                           "--append-records", str(records_file))
        assert code == 2
        assert "already exists" in err

    def test_append_empty_name_is_rejected(self, capsys, tmp_path):
        # before, an empty --name fell back to the architecture name
        records_file = tmp_path / "runs.json"
        run(capsys, "analyze", "AlexNet", "alexnet", "--date", "2012-06-01",
            "--name", "first", "--append-records", str(records_file))
        before = records_file.read_bytes()
        code, out, err = run(capsys, "analyze", "AlexNet", "alexnet", "--date", "2020-01-01",
                             "--name", "", "--append-records", str(records_file))
        assert (code, out) == (2, "")
        assert err == "algoeff: record name must be a non-empty string\n"
        assert records_file.read_bytes() == before

    def test_append_failure_keeps_old_file(self, capsys, tmp_path, monkeypatch):
        records_file = tmp_path / "runs.json"
        run(capsys, "analyze", "AlexNet", "alexnet", "--date", "2012-06-01",
            "--append-records", str(records_file))
        before = records_file.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        code, out, err = run(capsys, "analyze", "GoogLeNet", "googlenet",
                             "--date", "2014-09-17",
                             "--append-records", str(records_file))
        assert (code, out, err) == (2, "", "algoeff: disk full\n")
        assert records_file.read_bytes() == before
        assert os.listdir(tmp_path) == ["runs.json"]

    def test_append_replaces_file_and_keeps_its_mode(self, capsys, tmp_path):
        records_file = tmp_path / "runs.json"
        run(capsys, "analyze", "AlexNet", "alexnet", "--date", "2012-06-01",
            "--append-records", str(records_file))
        records_file.chmod(0o640)
        inode = records_file.stat().st_ino
        code, _, _ = run(capsys, "analyze", "GoogLeNet", "googlenet", "--date", "2014-09-17",
                         "--append-records", str(records_file))
        assert code == 0
        assert records_file.stat().st_ino != inode  # a new file took the old one's place
        assert records_file.stat().st_mode & 0o777 == 0o640
        assert os.listdir(tmp_path) == ["runs.json"]

    def test_append_through_a_symlink_replaces_its_target(self, capsys, tmp_path):
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "real.json"
        records_file = tmp_path / "runs.json"
        records_file.symlink_to(target)
        for name, curve, date in (("AlexNet", "alexnet", "2012-06-01"),
                                  ("GoogLeNet", "googlenet", "2014-09-17")):
            code, _, _ = run(capsys, "analyze", name, curve, "--date", date,
                             "--append-records", str(records_file))
            assert code == 0
        assert records_file.is_symlink() and records_file.resolve() == target
        assert [r.name for r in records_from_json(target.read_text())] == ["AlexNet", "GoogLeNet"]
        assert sorted(os.listdir(tmp_path)) == ["data", "runs.json"]
        assert os.listdir(tmp_path / "data") == ["real.json"]

    @pytest.mark.parametrize("path,message", [
        ("./bad.json", "./bad.json: records file is not valid json: Expecting property name "
                       "enclosed in double quotes: line 1 column 3 (char 2)"),
        ("./ok.json", "record 'AlexNet' already exists in ./ok.json"),
        ("./nodir/x.json", "[Errno 2] No such file or directory: './nodir/x.json'"),
    ])
    def test_append_names_the_file_as_typed(self, capsys, tmp_path, monkeypatch, path, message):
        # before, the first two dropped the ./ and the third named the hidden temporary file
        monkeypatch.chdir(tmp_path)
        Path("bad.json").write_text("[{")
        argv = ("analyze", "AlexNet", "alexnet", "--date", "2012-06-01", "--append-records")
        assert run(capsys, *argv, "./ok.json")[0] == 0
        before = {name: Path(name).read_bytes() for name in ("bad.json", "ok.json")}
        assert run(capsys, *argv, path) == (2, "", f"algoeff: {message}\n")
        assert {name: Path(name).read_bytes() for name in sorted(os.listdir())} == before

    def test_recorded_flops_column_wins(self, capsys, tmp_path):
        curve_file = tmp_path / "run.csv"
        curve_file.write_text(CURVE_WITH_FLOPS)
        records_file = tmp_path / "runs.json"
        code, out, _ = run(capsys, "analyze", "AlexNet", str(curve_file),
                           "--date", "2020-01-01", "--name", "measured",
                           "--append-records", str(records_file),
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["tables"][0]["rows"][0]
        assert row[4] == "2"
        assert row[6] == "2.0"  # recorded 2e15 in table units
        saved = json.loads(records_file.read_text())[0]
        assert saved["total_compute"] == 2e15
        assert "flops_per_image" not in saved


class TestFactorDecomposeDoubling:
    def test_factor_bundled(self, capsys):
        code, out, _ = run(capsys, "factor", "AlexNet", "EfficientNet-b0",
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["tables"][0]["rows"][0]
        assert row[2] == "44"
        assert row[3] == "2552"
        assert row[5] == "266.1" and row[6] == "6.0"

    def test_factor_unknown_record(self, capsys):
        code, _, err = run(capsys, "factor", "AlexNet", "LeNet")
        assert code == 2
        assert "no record named" in err

    def test_factor_missing_positional(self, capsys):
        code, _, err = run(capsys, "factor", "AlexNet")
        assert code == 1
        assert "improved" in err

    def test_decompose_bundled(self, capsys):
        code, out, _ = run(capsys, "decompose", "AlexNet", "EfficientNet-b0",
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["tables"][0]["rows"][0]
        assert row[2:] == ["22", "2.0", "44"]

    def test_doubling_named(self, capsys):
        code, out, _ = run(capsys, "doubling", "AlexNet", "EfficientNet-b0",
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["tables"][0]["rows"][0]
        assert row[4] == "15.32 months"

    def test_doubling_explicit(self, capsys):
        code, out, _ = run(capsys, "doubling", "--factor", "4", "--period", "24",
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["tables"][0]["rows"][0]
        assert row == ["4.0", "24 months", "12.00 months"]

    def test_doubling_explicit_days(self, capsys):
        code, out, _ = run(capsys, "doubling", "--factor", "4", "--period", "50",
                           "--period-unit", "days", "--format", "json")
        assert code == 0
        assert json.loads(out)["tables"][0]["rows"][0][2] == "25.00 days"

    def test_doubling_bare_prints_cross_domain(self, capsys):
        code, out, _ = run(capsys, "doubling", "--format", "json")
        assert code == 0
        table = json.loads(out)["tables"][0]
        assert table["key"] == "doubling_times"
        assert len(table["rows"]) == 8

    def test_doubling_factor_without_period(self, capsys):
        code, _, err = run(capsys, "doubling", "--factor", "4")
        assert code == 1
        assert "--factor and --period go together" in err

    def test_doubling_names_and_flags_conflict(self, capsys):
        code, _, err = run(capsys, "doubling", "AlexNet", "EfficientNet-b0",
                           "--factor", "4", "--period", "24")
        assert code == 1
        assert "not both" in err

    def test_doubling_single_name(self, capsys):
        code, _, err = run(capsys, "doubling", "AlexNet")
        assert code == 1
        assert "need both BASELINE and IMPROVED" in err


class TestFrontierTrendEffective:
    def test_frontier_bundled(self, capsys):
        code, out, _ = run(capsys, "frontier", "--format", "json")
        assert code == 0
        rows = json.loads(out)["tables"][0]["rows"]
        assert [r[0] for r in rows] == [
            "AlexNet", "GoogLeNet", "MobileNet_v1", "ShuffleNet_v1_1x",
            "ShuffleNet_v2_1x", "EfficientNet-b0",
        ]

    def test_frontier_units(self, capsys):
        code, out, _ = run(capsys, "frontier", "--unit", "stated",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)["tables"][0]["rows"]
        assert rows[0][2] == "3.08"  # AlexNet raw / 8.64e16

    def test_trend_regression(self, capsys):
        code, out, _ = run(capsys, "trend", "--format", "json")
        assert code == 0
        fit = fit_trend(frontier(load_imagenet_records()), method="regression")
        row = json.loads(out)["tables"][0]["rows"][0]
        assert row[0] == "regression" and row[1] == "6"
        assert row[3] == f"{fit.doubling_months:.2f}"

    def test_trend_endpoints(self, capsys):
        code, out, _ = run(capsys, "trend", "--method", "endpoints",
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["tables"][0]["rows"][0]
        assert row[0] == "endpoints" and row[1] == "2"
        assert row[3] == "15.32"
        assert row[4] == "1.0000"

    def test_trend_all_records(self, capsys):
        code, out, _ = run(capsys, "trend", "--all-records", "--format", "json")
        assert code == 0
        assert json.loads(out)["tables"][0]["rows"][0][1] == "16"

    @pytest.mark.parametrize("argv", [("trend",), ("trend", "--all-records")])
    def test_trend_needs_one_threshold(self, capsys, tmp_path, argv):
        # before, --all-records fit through both thresholds and printed an 11.14-month doubling
        path = tmp_path / "r.json"
        path.write_text(json.dumps([
            {"name": "a", "date": "2012-06-01", "total_compute": 4e17, "threshold": 0.7},
            {"name": "b", "date": "2014-09-17", "total_compute": 2e16, "threshold": 0.8},
            {"name": "c", "date": "2017-04-17", "total_compute": 1e16, "threshold": 0.8},
        ]))
        code, out, err = run(capsys, *argv, "--records", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("algoeff: a and b target different thresholds ")
        assert err.count("\n") == 1

    def test_effective_explicit_factors(self, capsys):
        code, out, _ = run(capsys, "effective", "300000", "25",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)["tables"][0]["rows"]
        assert rows[-1] == ["effective", "7,500,000"]

    def test_effective_default_model(self, capsys):
        code, out, _ = run(capsys, "effective", "--format", "json")
        assert code == 0
        rows = dict(json.loads(out)["tables"][0]["rows"])
        assert rows == {"hardware_factor": "8", "spending_factor": "37,500",
                        "efficiency_factor": "25", "total_factor": "7,500,000"}

    def test_effective_rejects_zero(self, capsys):
        code, _, err = run(capsys, "effective", "0")
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("factors", [["inf"], ["1e308", "1e308"]])
    def test_effective_rejects_non_finite(self, capsys, factors):
        code, out, err = run(capsys, "effective", *factors)
        assert (code, out) == (2, "")
        assert err == "algoeff: the product of the factors is not a finite number\n"

    @pytest.mark.parametrize("date", ["20120601", "2013-W01-1"])
    def test_records_file_other_iso_date_forms(self, capsys, tmp_path, date):
        path = tmp_path / "r.json"
        path.write_text(json.dumps([{"name": "a", "date": date, "total_compute": 4e17}]))
        code, out, err = run(capsys, "frontier", "--records", str(path))
        assert (code, out) == (2, "")
        assert err == f"algoeff: {path}: record 0 (a): date '{date}' is not YYYY-MM-DD\n"


INF_TOTAL = '[{"name": "a", "date": "2012-01-01", "total_compute": Infinity},' \
            ' {"name": "b", "date": "2013-01-01", "total_compute": 1e18}]'
STRING_MULTIPLIER = '[{"name": "a", "date": "2012-01-01", "total_compute": 1e19,' \
                    ' "backward_multiplier": "3"},' \
                    ' {"name": "b", "date": "2013-01-01", "total_compute": 1e18}]'
RATIO_OVERFLOW = '[{"name": "a", "date": "2012-01-01", "total_compute": 1e308},' \
                 ' {"name": "b", "date": "2013-01-01", "total_compute": 1e-10}]'
TERM_OVERFLOW = '[{"name": "a", "date": "2012-01-01", "flops_per_image": 1e-300,' \
                ' "epochs": 1e300, "images_per_epoch": 1},' \
                ' {"name": "b", "date": "2013-01-01", "flops_per_image": 1e300,' \
                ' "epochs": 1e-300, "images_per_epoch": 1}]'


class TestNonFiniteInputs:
    """Inputs that once printed inf or nan, or ended in a traceback."""

    @pytest.mark.parametrize("records,argv,message", [
        (INF_TOTAL, ["frontier"],
         "record 0 (a): total_compute must be positive and finite, got inf"),
        (INF_TOTAL, ["trend", "--all-records"],
         "record 0 (a): total_compute must be positive and finite, got inf"),
        (STRING_MULTIPLIER, ["factor", "a", "b"],
         "record 0 (a): backward_multiplier must be positive and finite, got '3'"),
        (RATIO_OVERFLOW, ["factor", "a", "b"], "a to b: ratio of totals is not finite"),
        (RATIO_OVERFLOW, ["doubling", "a", "b"], "a to b: ratio of totals is not finite"),
        (RATIO_OVERFLOW, ["report"], "a to b: ratio of totals is not finite"),
        (TERM_OVERFLOW, ["decompose", "a", "b"], "a to b: a term ratio is not finite"),
    ])
    def test_records(self, capsys, tmp_path, records, argv, message):
        path = tmp_path / "r.json"
        path.write_text(records)
        code, out, err = run(capsys, *argv, "--records", str(path))
        # an error found while loading the file is led by its path
        where = f"{path}: " if message.startswith("record ") else ""
        assert (code, out, err) == (2, "", f"algoeff: {where}{message}\n")

    @pytest.mark.parametrize("factor,period", [("inf", "12"), ("2", "inf"), ("1e400", "12")])
    def test_doubling_flags(self, capsys, factor, period):
        code, out, err = run(capsys, "doubling", "--factor", factor, "--period", period)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "must be positive and finite, got inf" in err

    def test_curve_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("epoch,top5_accuracy,cumulative_flops\n1,0.5,nan\n2,0.8,3e18\n")
        code, out, err = run(capsys, "analyze", "AlexNet", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"algoeff: {path}: c line 2: compute must be finite")
        assert err.count("\n") == 1


def _alexnet_file(tmp_path, edit) -> str:
    obj = json.loads(arch_file_text(builtin_arch("AlexNet")))
    edit(obj)
    path = tmp_path / "alexnet.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _huge_conv1(obj):
    next(n for n in obj["nodes"] if n["id"] == "conv1.conv")["params"]["out_channels"] = 10**310


def _huge_input(obj):
    obj["default_input"] = {"c": 3, "h": 10**200, "w": 10**200}


class TestCountBeyondFloatRange:
    """An exact count too large for a float is an input error, not a traceback."""

    @pytest.mark.parametrize("edit", [_huge_conv1, _huge_input])
    @pytest.mark.parametrize("argv", [
        ("flops", "{file}"),
        ("flops", "{file}", "--per-layer", "--format", "csv"),
        ("analyze", "{file}", "alexnet"),
    ])
    def test_exit_2_naming_the_architecture(self, capsys, tmp_path, edit, argv):
        path = _alexnet_file(tmp_path, edit)
        code, out, err = run(capsys, *(a.format(file=path) for a in argv))
        assert (code, out, err) == (2, "", "algoeff: AlexNet: per-image count exceeds the "
                                           "float range\n")

    @pytest.mark.parametrize("edit,row", [
        (_huge_conv1, f"| conv1.conv | conv2d | {10**310}x55x55 |"),
        (_huge_input, f"| input | input | 3x{10**200}x{10**200} |"),
    ])
    def test_shapes_still_prints(self, capsys, tmp_path, edit, row):
        code, out, err = run(capsys, "shapes", _alexnet_file(tmp_path, edit))
        assert (code, err) == (0, "")
        assert row in out.splitlines()


class TestInputEdges:
    """Bad inputs found by probing end in exit 2 with one line on stderr."""

    def test_bad_threshold_names_its_record(self, capsys, tmp_path):
        objs = [{"name": f"r{i}", "date": f"201{i}-01-01", "total_compute": 10.0 - i}
                for i in range(5)]
        objs[3]["threshold"] = 1.5
        path = tmp_path / "r.json"
        path.write_text(json.dumps(objs))
        code, out, err = run(capsys, "frontier", "--records", str(path))
        assert (code, out) == (2, "")
        assert err == f"algoeff: {path}: record 3 (r3): threshold value 1.5 outside (0, 1]\n"

    @pytest.mark.parametrize("argv", [
        ("report", "--records", "{file}"),
        ("report", "--figures", "--records", "{file}"),
        ("factor", "a", "a", "--records", "{file}"),
        ("frontier", "--records", "{file}"),
        ("analyze", "AlexNet", "alexnet", "--date", "2012-06-01", "--append-records", "{file}"),
    ])
    def test_repeated_record_name(self, capsys, tmp_path, argv):
        # before the rule, report flagged both "a" rows on_frontier and factor a a printed 1.0
        path = tmp_path / "r.json"
        path.write_text('[{"name":"a","date":"2015-01-01","total_compute":1e15},'
                        '{"name":"a","date":"2016-01-01","total_compute":2e15}]')
        before = path.read_bytes()
        code, out, err = run(capsys, *(a.format(file=path) for a in argv))
        assert (code, out, err) == (2, "", f"algoeff: {path}: record 1 (a): name repeats "
                                           "record 0\n")
        assert path.read_bytes() == before

    @pytest.mark.parametrize("n,known", [
        (0, "the records file holds no records"),
        (25, "known records: " + ", ".join(f"r{i}" for i in range(20)) + " and 5 more"),
    ], ids=["empty", "capped"])
    def test_unknown_record_name_lists_at_most_twenty(self, capsys, tmp_path, n, known):
        path = tmp_path / "r.json"
        path.write_text(_records_text(n))
        code, out, err = run(capsys, "factor", "r0", "zz", "--records", str(path))
        first = "zz" if n else "r0"
        assert (code, out, err) == (2, "", f"algoeff: no record named {first!r}; {known}\n")

    @pytest.mark.parametrize("argv,message", [
        (("flops", "{file}"), "algoeff: not valid JSON: Exceeds the limit"),
        (("frontier", "--records", "{file}"), "algoeff: records file is not valid json: "
                                              "Exceeds the limit"),
    ])
    def test_int_too_long_to_parse(self, capsys, tmp_path, argv, message):
        path = tmp_path / "long.json"
        path.write_text("[" + "1" * 5000 + "]")
        code, out, err = run(capsys, *(a.format(file=path) for a in argv))
        assert (code, out) == (2, "")
        # like any text that is not json, the message names the file
        assert err.startswith(message.replace("algoeff: ", f"algoeff: {path}: ", 1))
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (("flops", "{file}"), "not valid JSON: nested too deeply"),
        (("frontier", "--records", "{file}"), "records file is not valid json: nested too deeply"),
        (("analyze", "AlexNet", "alexnet", "--date", "2012-06-01", "--append-records", "{file}"),
         "records file is not valid json: nested too deeply"),
    ])
    def test_nested_too_deeply(self, capsys, tmp_path, argv, message):
        # before, the parser's RecursionError ended in a traceback and exit 1
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, out, err = run(capsys, *(a.format(file=path) for a in argv))
        assert (code, out, err) == (2, "", f"algoeff: {path}: {message}\n")
        assert path.read_text() == "[" * 200_000

    def test_long_curve_header_is_cut(self, capsys, tmp_path, monkeypatch):
        # before, the whole 200 KB first line was echoed
        monkeypatch.chdir(tmp_path)
        Path("deep.csv").write_text("[" * 200_000 + "\n1,0.5\n")
        code, out, err = run(capsys, "analyze", "AlexNet", "./deep.csv")
        assert (code, out) == (2, "")
        assert err.startswith("algoeff: ./deep.csv: deep line 1: expected header ")
        assert err.endswith("'...\n") and len(err.encode()) < 300

    @pytest.mark.parametrize("argv", [
        ("flops", "{dir}/graph.json"),
        ("frontier", "--records", "{dir}/records.json"),
        ("analyze", "AlexNet", "{dir}/run.csv"),
        ("analyze", "AlexNet", "alexnet", "--date", "2012-06-01",
         "--append-records", "{dir}/records.json"),
        ("analyze", "{dir}/graph.json", "{dir}/run.csv"),
    ])
    def test_undecodable_file(self, capsys, tmp_path, argv):
        # before, a file that is not UTF-8 ended in a UnicodeDecodeError traceback;
        # the message names the first file read
        for name in ("graph.json", "records.json", "run.csv"):
            (tmp_path / name).write_bytes(b"\xff[]")
        code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
        bad = next(a for a in argv if a.startswith("{dir}/")).format(dir=tmp_path)
        assert (code, out) == (2, "")
        assert err == (f"algoeff: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
                       "invalid start byte\n")
        assert (tmp_path / "records.json").read_bytes() == b"\xff[]"

    @pytest.mark.parametrize("argv,message", [
        (("flops", "{dir}/graph.json"),
         "not valid JSON: Expecting value: line 1 column 10 (char 9)"),
        (("frontier", "--records", "{dir}/records.json"),
         "records file is not valid json: Expecting property name enclosed in double quotes: "
         "line 1 column 3 (char 2)"),
        (("analyze", "AlexNet", "alexnet", "--date", "2012-06-01",
          "--append-records", "{dir}/records.json"),
         "records file is not valid json: Expecting property name enclosed in double quotes: "
         "line 1 column 3 (char 2)"),
        (("analyze", "{dir}/graph.json", "alexnet", "--date", "2012-06-01",
          "--append-records", "{dir}/records.json"),
         "not valid JSON: Expecting value: line 1 column 10 (char 9)"),
    ])
    def test_truncated_json_file(self, capsys, tmp_path, argv, message):
        # before, the message did not say which of a command's files was cut short
        (tmp_path / "graph.json").write_text('{"name": ')
        (tmp_path / "records.json").write_text("[{")
        code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
        bad = next(a for a in argv if a.startswith("{dir}/")).format(dir=tmp_path)
        assert (code, out, err) == (2, "", f"algoeff: {bad}: {message}\n")
        assert (tmp_path / "records.json").read_text() == "[{"

    # int() and float() read these as 224, 3 and 0.791; a flag or file takes ASCII decimals only
    @pytest.mark.parametrize("argv,message", [
        (("flops", "AlexNet", "--input", "3x2_24x224"),
         "expected integer dimensions in '3x2_24x224'"),
        (("shapes", "AlexNet", "--input", "\uff13x224x224"),
         "expected integer dimensions in '\uff13x224x224'"),
        (("analyze", "AlexNet", "alexnet", "--threshold", "0.7_91"),
         "threshold '0.7_91' is not a number or metric:value pair"),
        (("analyze", "AlexNet", "{dir}/run.csv"), "{dir}/run.csv: run line 3: epoch '2_0' is "
                                                  "not an integer"),
    ])
    def test_numbers_are_ascii_decimals(self, capsys, tmp_path, argv, message):
        (tmp_path / "run.csv").write_text("epoch,top5_accuracy\n1,0.5\n2_0,0.8\n")
        code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert (code, out, err) == (2, "", f"algoeff: {message.format(dir=tmp_path)}\n")

    # float() reads these as 10, 2, 24, 1281167 and 3; a float flag takes ASCII text only
    @pytest.mark.parametrize("argv,bad", [
        (("effective", "1_0", "2"), "argument factors: invalid float value: '1_0'"),
        (("effective", "10", "\uff12"), "argument factors: invalid float value: '\uff12'"),
        (("doubling", "--factor", "1_0", "--period", "24"),
         "argument --factor: invalid float value: '1_0'"),
        (("doubling", "--factor", "4", "--period", "2_4"),
         "argument --period: invalid float value: '2_4'"),
        (("analyze", "AlexNet", "alexnet", "--images-per-epoch", "1_281_167"),
         "argument --images-per-epoch: invalid float value: '1_281_167'"),
        (("analyze", "AlexNet", "alexnet", "--backward-multiplier", "\uff13"),
         "argument --backward-multiplier: invalid float value: '\uff13'"),
        (("doubling", "--factor", "four", "--period", "24"),
         "argument --factor: invalid float value: 'four'"),
    ])
    def test_float_flags_are_ascii(self, capsys, argv, bad):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"algoeff {argv[0]}: {bad}\n")

    def test_float_flags_take_ascii_float_forms(self, capsys):
        code, out, _ = run(capsys, "effective", "1e1", " 2.0 ", "--format", "csv")
        assert code == 0
        assert out.endswith("effective,20\n")
        code, out, _ = run(capsys, "doubling", "--factor", "4", "--period", "24.0",
                           "--format", "csv")
        assert code == 0
        assert "4.0,24 months,12.00 months" in out

    @pytest.mark.parametrize("argv", [("shapes",), ("flops", "--per-layer", "--counted-kinds",
                                                  "concat")])
    def test_shape_too_long_to_print(self, capsys, tmp_path, argv):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "name": "wide", "default_input": {"c": 3, "h": 10**2999, "w": 10**2999},
            "nodes": [{"id": "f", "kind": "flatten", "inputs": ["input"]}], "output": "f",
        }))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (2, "", "algoeff: a shape has a dimension with too many "
                                           "digits to print\n")


class TestCurvesListedOncePerCommand:
    @pytest.mark.parametrize("argv,code", [
        (("analyze", "AlexNet", "alexnet"), 0),
        (("analyze", "AlexNet", "nosuch"), 2),
        (("report", "--figures"), 0),
    ])
    def test_one_listing(self, capsys, monkeypatch, argv, code):
        listed = []
        real = pathlib.Path.iterdir

        def counting(self):
            listed.append(self.name)
            return real(self)

        monkeypatch.setattr(pathlib.Path, "iterdir", counting)
        assert run(capsys, *argv)[0] == code
        assert listed == ["curves"]


class TestReport:
    def test_default_has_three_tables(self, capsys):
        code, out, _ = run(capsys, "report", "--format", "json")
        assert code == 0
        keys = [t["key"] for t in json.loads(out)["tables"]]
        assert keys == ["efficiency_factors", "doubling_times", "training_compute"]

    def test_figures_adds_point_series(self, capsys):
        code, out, _ = run(capsys, "report", "--figures", "--format", "json")
        assert code == 0
        keys = [t["key"] for t in json.loads(out)["tables"]]
        assert keys == ["efficiency_factors", "doubling_times", "training_compute",
                        "frontier_points", "curve_points", "effective_compute_points"]
        curves = {r[0] for t in json.loads(out)["tables"]
                  if t["key"] == "curve_points" for r in t["rows"]}
        assert curves == {"alexnet", "googlenet", "resnet50", "vgg11"}

    @pytest.mark.parametrize("argv", [("report",), ("report", "--figures")])
    def test_frontier_computed_once(self, capsys, monkeypatch, argv):
        calls = []

        def counting(records):
            calls.append(len(records))
            return frontier(records)

        monkeypatch.setattr(trends_mod, "frontier", counting)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "EfficientNet-b0" in out
        assert calls == [len(load_imagenet_records())]

    @pytest.mark.parametrize("argv", [("report", "--figures"),
                                      ("report", "--figures", "--records", "{file}")])
    def test_bundled_records_loaded_once(self, capsys, monkeypatch, tmp_path, argv):
        path = tmp_path / "r.json"
        path.write_text(json.dumps([{"name": "a", "date": "2015-01-01", "total_compute": 4e17}]))
        calls = []

        def counting():
            calls.append(1)
            return load_imagenet_records()

        monkeypatch.setattr(datasets_mod, "load_imagenet_records", counting)
        code, out, _ = run(capsys, *(a.format(file=path) for a in argv))
        assert code == 0 and "alexnet" in out
        assert len(calls) == 1

    def test_markdown_embeds_warnings(self, capsys):
        code, out, err = run(capsys, "report")
        assert code == 0
        assert out.count("> note:") == 4
        assert err == ""

    def test_csv_sends_warnings_to_stderr(self, capsys):
        code, out, err = run(capsys, "report", "--format", "csv")
        assert code == 0
        assert "note:" not in out
        assert err.count("note: ") == 4

    def test_json_stdout_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "report", "--figures", "--format", "json")
        _, second, _ = run(capsys, "report", "--figures", "--format", "json")
        assert first == second

    def test_custom_records_skip_quoted_column(self, capsys, tmp_path):
        records_file = tmp_path / "r.json"
        records_file.write_text(json.dumps([
            {"name": "a", "date": "2015-01-01", "total_compute": 4e17},
            {"name": "b", "date": "2016-01-01", "total_compute": 1e17},
        ]))
        code, out, _ = run(capsys, "report", "--records", str(records_file),
                           "--format", "json")
        assert code == 0
        compute = next(t for t in json.loads(out)["tables"]
                       if t["key"] == "training_compute")
        assert all(r[5] == "" for r in compute["rows"])


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "subcommand is required" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frops")
        assert code == 1
        assert "invalid choice" in err

    def test_bad_format_choice(self, capsys):
        code, _, err = run(capsys, "flops", "AlexNet", "--format", "xml")
        assert code == 1
        assert "--format" in err

    @pytest.mark.parametrize("error", [GraphError, ShapeError, CurveError, TrendError,
                                       DatasetError])
    def test_input_errors_share_one_base(self, error):
        # main maps the base to exit 2
        assert issubclass(error, algoeff.InputError) and issubclass(error, ValueError)

    def test_threshold_not_reached_is_a_result_error(self, capsys, tmp_path):
        # a curve that stops short is an answer about valid input, not bad input
        assert issubclass(ThresholdNotReached, algoeff.ResultError)
        assert not issubclass(ThresholdNotReached, (algoeff.InputError, ValueError))
        path = tmp_path / "slow.csv"
        path.write_text("epoch,top5_accuracy\n1,0.5\n")
        assert run(capsys, "analyze", "AlexNet", str(path)) == (
            3, "", "algoeff: slow: best top5 accuracy 0.50000 never reaches 0.79100\n")

    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_help_texts_are_pinned(self):
        # the strings behind every --help page; argparse's layout of them varies by version
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        texts = [(c.dest, c.help) for c in sub._choices_actions]
        texts += [(name, a.option_strings or a.dest, a.metavar, a.choices, a.default, a.help)
                  for name, p in sub.choices.items() for a in p._actions]
        digest = hashlib.sha256(repr(texts).encode("utf-8")).hexdigest()
        assert digest == "f93defcca459f9b94d7dcca710b4f9c5efb67506ca0be05066123a222be52274"

    def test_calls_share_no_flags_or_state(self, capsys):
        sequence = [
            ("frontier", "--unit", "raw", "--format", "csv"),
            ("frontier",),
            ("frontier", "--unit", "nope"),
            ("trend", "--all-records", "--method", "endpoints", "--format", "json"),
            ("trend",),
            ("flops", "AlexNet", "--count-unit", "flop2", "--per-layer", "--include-bias"),
            ("flops", "AlexNet"),
            ("frops",),
            ("effective", "2", "3"),
            ("effective",),
            (),
            ("doubling", "--factor", "4", "--period", "24", "--period-unit", "days"),
            ("doubling",),
            ("factor", "AlexNet", "EfficientNet-b0", "--bogus"),
            ("report", "--figures", "--unit", "stated"),
            ("report",),
        ]
        fresh = []
        for argv in sequence:
            _build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        for order in (sequence, sequence[::-1]):
            shared = [run(capsys, *argv) for argv in order]
            assert shared == [fresh[sequence.index(argv)] for argv in order]
        codes = [code for code, _, _ in fresh]
        assert codes == [0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0]
        assert all(err.count("\n") == 1 for code, _, err in fresh if code == 1)

    def test_bad_records_file(self, capsys, tmp_path):
        bad = tmp_path / "r.json"
        bad.write_text("not json")
        code, _, err = run(capsys, "frontier", "--records", str(bad))
        assert code == 2
        assert "not valid json" in err

    def test_console_script(self):
        if shutil.which("algoeff"):
            argv = ["algoeff"]
        else:
            argv = [sys.executable, "-m", "algoeff.cli"]
        # the child imports the same package as this test, wherever pytest found it
        src = str(Path(algoeff.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        result = subprocess.run(argv + ["flops", "AlexNet", "--format", "csv"],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0
        assert "714,188,480" in result.stdout


def _residual_graph(blocks: int) -> str:
    """Graph json of blocks conv/batchnorm/activation/add blocks, four nodes each."""
    conv = {"out_channels": 4, "kernel_h": 3, "kernel_w": 3, "padding": 1}
    nodes, x = [], "input"
    for i in range(blocks):
        skip = x if i else f"r{i}"  # the input has 3 channels, the blocks 4
        nodes += [
            {"id": f"c{i}", "kind": "conv2d", "params": conv, "inputs": [x]},
            {"id": f"b{i}", "kind": "batchnorm", "params": {}, "inputs": [f"c{i}"]},
            {"id": f"r{i}", "kind": "activation", "params": {}, "inputs": [f"b{i}"]},
            {"id": f"a{i}", "kind": "elementwise_add", "params": {},
             "inputs": [skip, f"r{i}"]},
        ]
        x = f"a{i}"
    return json.dumps({"name": "deep", "default_input": {"c": 3, "h": 8, "w": 8},
                       "nodes": nodes, "output": x})


def _records_text(n: int) -> str:
    """A records file of n records at the default threshold, a third in triple form."""
    rng = random.Random(n)
    base = datetime.date(2012, 1, 1)
    records = []
    for i in range(n):
        work = ({"flops_per_image": float(rng.randint(10**8, 10**10)),
                 "epochs": float(rng.randint(1, 90))} if i % 3 == 0
                else {"total_compute": 2.0 ** rng.uniform(50.0, 70.0)})
        records.append(EfficiencyRecord(
            name=f"r{i}", date=base + datetime.timedelta(days=rng.randrange(3000)), **work))
    return records_to_json(records)


class TestCollectorPaused:
    """main runs each command with the cyclic collector paused, then restores it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was = gc.isenabled()
        yield
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv,code", [
        (("effective", "2", "3"), 0),
        (("flops", "AlexNet", "--bogus"), 1),
        (("frontier", "--records", "{missing}"), 2),
        (("analyze", "AlexNet", "alexnet", "--threshold", "0.999"), 3),
    ])
    def test_left_as_found(self, capsys, tmp_path, enabled, argv, code):
        (gc.enable if enabled else gc.disable)()
        assert run(capsys, *(a.format(missing=tmp_path / "none.json") for a in argv))[0] == code
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_left_as_found_when_a_handler_raises(self, capsys, monkeypatch, enabled):
        during = []

        def failing(factors):
            during.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_mod, "effective_table", failing)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="boom"):
            main(["effective", "2"])
        assert during == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("argv,write", [
        (("flops", "{file}", "--per-layer", "--format", "json"),
         lambda n: _residual_graph(n // 4)),
        (("report", "--figures", "--records", "{file}"), _records_text),
    ])
    def test_garbage_cycles_do_not_grow_with_input(self, capsys, tmp_path, argv, write):
        # Pausing the collector is safe because a command's data holds no
        # cycles: what a command leaves for it is a fixed handful of objects.
        def cyclic_garbage(n: int) -> int:
            path = tmp_path / f"{n}.json"
            path.write_text(write(n))
            gc.collect()
            gc.disable()
            assert main([a.format(file=path) for a in argv]) == 0
            capsys.readouterr()
            return gc.collect()

        cyclic_garbage(200)  # the first command builds the parser, which leaves cycles
        small, large = cyclic_garbage(200), cyclic_garbage(2000)
        assert small == large < 50
