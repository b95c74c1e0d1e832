"""End-to-end command line behavior: output, exit codes, file round trips."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import algoeff
from algoeff.archflops import arch_to_json, builtin_arch
from algoeff.cli import main
from algoeff.datasets import load_imagenet_records
from algoeff.reports import fmt_compute
from algoeff.trends import fit_trend, frontier, records_from_json


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
        path.write_text(arch_to_json(builtin_arch("ResNet-50")))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("flops", "{file}", "--per-layer"),
        ("shapes", "{file}"),
        ("flops", "ResNet-50", "--per-layer"),
    ])
    def test_once_per_node(self, capsys, node_shape_calls, graph_file, argv):
        code, out, _ = run(capsys, *(a.format(file=graph_file) for a in argv))
        assert code == 0
        assert "2048x7x7" in out
        assert sorted(node_shape_calls) == sorted(n.id for n in builtin_arch("ResNet-50").nodes)

    def test_input_override_is_inferred_again(self, capsys, node_shape_calls, graph_file):
        code, out, _ = run(capsys, "flops", graph_file, "--per-layer",
                           "--input", "3x288x288", "--format", "csv")
        assert code == 0
        assert "head.pool,global_avgpool,2048x1x1" in out
        assert "2048x9x9" in out and "2048x7x7" not in out
        assert len(node_shape_calls) == 2 * len(builtin_arch("ResNet-50").nodes)


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

    def test_unknown_curve(self, capsys):
        code, _, err = run(capsys, "analyze", "AlexNet", "lenet")
        assert code == 2
        assert "neither a readable csv path nor a bundled curve" in err

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
