"""A standing mutation check: each planted bug must fail the tests named for it.

    python tests/mutants.py [NAME ...]

``MUTANTS`` lists each planted bug as (name, file under the repository
root, exact old text, new text, tests that must fail). The script copies
``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` (which
``test_docs.py`` reads) to a temporary directory and, one mutant at a
time, replaces the old text in the copy, runs only that mutant's tests
there with pytest (stopping at the first failure) and puts the file back. A mutant is killed when pytest reports a failed
test and survives when every test passes; old text that is not found
exactly once, or a pytest run that ends any other way, marks it broken.
The named tests first run once with no mutant, and must all pass. It
prints one line per mutant and exits 1 if any survives or is broken.
Names given on the command line select mutants. No bytecode is written,
so a mutant never runs a stale compiled copy of the file it changed.
pytest does not collect this file: its name does not start with ``test_``.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI = "src/algoeff/cli.py"
GRAPH = "src/algoeff/archflops/graph.py"
ZOO = "src/algoeff/archflops/zoo.py"
TRENDS = "src/algoeff/trends.py"
JSONFILE = "src/algoeff/_jsonfile.py"

# Each mutant names the tests that kill it, by class or id, so the whole run stays short.
PINNED = "tests/test_zoo.py::test_builtins_are_pinned_exactly"
AS_TYPED = "tests/test_cli.py::TestAnalyze::test_append_names_the_file_as_typed"

MUTANTS = [
    # input files: the CLI names the file, and only a / or a suffix makes an argument one
    ("no path prefix on a file's errors", CLI,
     'raise InputError(f"{path}: {e}") from None', "raise",
     ["tests/test_cli.py::TestInputEdges"]),
    ("a curve argument is a file whenever the entry exists", CLI,
     'if _is_file(value, ".csv"):', 'if _is_file(value, ".csv") or Path(value).exists():',
     ["tests/test_cli.py::TestAnalyze::test_bundled_name_beside_an_entry_of_that_name"]),
    ("no threshold check in fit_trend", TRENDS,
     "    _require_one_threshold(ordered)", "    pass",
     ["tests/test_trends.py::TestFitTrend::test_threshold_mismatch_rejected",
      "tests/test_cli.py::TestFrontierTrendEffective::test_trend_needs_one_threshold"]),
    # loader checks that one test each reaches
    ("node inputs not checked for an array", GRAPH,
     "if type(params) is dict and type(inputs) is list:", "if type(params) is dict:",
     ["tests/test_graph.py::TestJsonFormat"]),
    ("record name not checked", TRENDS,
     'and type(name := obj.get("name")) is str and name):',
     'and (name := obj.get("name")) is not None):',
     ["tests/test_trends.py::TestRecordJson"]),
    ("a Frontier of no records", TRENDS,
     "        if not self.records:", "        if False:",
     ["tests/test_trends.py::TestFrontier"]),
    # json files: objects built as the parser reads them, messages from the plain parse
    ("the parser's object hook builds no node", GRAPH,
     '"not valid JSON", GraphError, _json_node, _arch_from_tree)',
     '"not valid JSON", GraphError, None, _arch_from_tree)',
     ["tests/test_graph.py::test_nodes_are_built_while_the_parser_reads_them"]),
    ("no second parse after the checker raised", JSONFILE,
     "        except ValueError:\n            pass\n",
     "        except ValueError:\n            raise\n",
     ["tests/test_graph.py::TestNodeShapedObjects"]),
    ("no second parse after calling the hook overflowed", JSONFILE,
     "    except _HookRaised:\n        pass\n", "    except _HookRaised:\n        raise\n",
     ["tests/test_trends.py::test_at_the_hook_call_boundary_the_plain_parse_words_the_error"]),
    ("text nested too deeply for the parser is parsed again", JSONFILE,
     'if object_hook is not None and "JSON" not in str(e):', "if object_hook is not None:",
     ["tests/test_trends.py::TestRecordsBuiltWhileParsed::"
      "test_text_the_parser_rejects_is_parsed_once"]),
    ("the records hook lets a record's error out", TRENDS,
     "        except InputError:\n            pass\n",
     "        except InputError:\n            raise\n",
     ["tests/test_trends.py::TestRecordsBuiltWhileParsed::test_a_bad_record_is_parsed_twice"]),
    # input edges: deep nesting and long curve headers end in one short line
    ("a json file nested too deeply is not caught", JSONFILE,
     "except (ValueError, RecursionError) as e:", "except ValueError as e:",
     ["tests/test_graph.py::test_json_nested_too_deeply",
      "tests/test_cli.py::TestInputEdges::test_nested_too_deeply",
      "tests/test_datasets.py::TestComparisonFromDict::test_json_nested_too_deeply"]),
    ("a long curve header value quoted whole", "src/algoeff/curves.py",
     "    if len(value) <= _QUOTED_CHARS:", "    if True:",
     ["tests/test_curves.py::TestParseCurve::test_header_quotes_at_most_sixty_characters",
      "tests/test_cli.py::TestInputEdges::test_long_curve_header_is_cut"]),
    # the shared inverted-residual builder
    ("no squeeze-excite", ZOO, "            if se:", "            if False:", [PINNED]),
    ("padding 1 for every depthwise kernel", ZOO, "p=(k - 1) // 2,", "p=1,", [PINNED]),
    ("MobileNet_v2 with the mb prefix", ZOO, '{"block": "ir"', '{"block": "mb"', [PINNED]),
    ("EfficientNet-b0 with the ir prefix", ZOO, '{"block": "mb"', '{"block": "ir"', [PINNED]),
    ("head dropout on MobileNet_v2", ZOO, '"act": "relu6", "plan"',
     '"act": "relu6", "dropout": True, "plan"', [PINNED]),
    # counting and shapes: the commands read the walk's shape map in place
    ("count_flops reads shapes through infer_shapes", "src/algoeff/archflops/counting.py",
     "    shapes, layers = walked_layers(arch, input_shape)\n",
     "    from .shapes import infer_shapes\n"
     "    shapes, layers = infer_shapes(arch, input_shape), walked_layers(arch, input_shape)[1]\n",
     ["tests/test_counting.py::test_count_allocates_one_per_layer_map"]),
    # counting and the per-layer table: one mac rule run and one cell per distinct count
    ("count_flops counts every node", "src/algoeff/archflops/counting.py",
     "macs = per_layer.get(first.id)", "macs = None",
     ["tests/test_counting.py::TestOncePerSignature::test_mac_rule_runs_once_per_signature"]),
    ("the per-layer cell cache is keyed by node kind", "src/algoeff/reports.py",
     "        cell = cells.get(macs)\n        if cell is None:\n            cell = cells[macs] = ",
     "        cell = cells.get(n.kind)\n"
     "        if cell is None:\n            cell = cells[n.kind] = ",
     ["tests/test_reports.py::test_per_layer_cells_format_each_distinct_count_once"]),
    ("FlopCount copies its per-layer map", "src/algoeff/archflops/counting.py",
     "    input: TensorShape\n\n    @property",
     "    input: TensorShape\n\n    def __post_init__(self):\n"
     "        object.__setattr__(self, \"per_layer\", dict(self.per_layer))\n\n    @property",
     ["tests/test_counting.py::test_count_allocates_one_per_layer_map"]),
    ("shapes_table reads a copy of the shape map", "src/algoeff/reports.py",
     "    shapes = walked_shapes(arch, input_shape)\n",
     "    shapes = dict(walked_shapes(arch, input_shape))\n",
     ["tests/test_reports.py::test_shapes_table_reads_the_walk_in_place"]),
    ("an --append-records file named without its ./", CLI,
     "        path = args.append_records\n", "        path = Path(args.append_records)\n",
     [AS_TYPED]),
    ("a failed write names the temporary file", CLI,
     "        raise OSError(e.errno, e.strerror, path) from None", "        raise", [AS_TYPED]),
    ("grouped convolution counted as dense", GRAPH,
     '(ins[0].channels // p["groups"])', "ins[0].channels",
     ["tests/test_counting.py::TestHandArithmetic"]),
    ("no ceil-mode guard on the last window", GRAPH,
     "if ceil and (out - 1) * stride >= in_dim + padding:", "if False:",
     ["tests/test_shapes.py::TestWindowOutDim"]),
    ("a missing required parameter is no problem", GRAPH,
     "        elif default is _REQUIRED:\n", "        elif False:\n",
     ["tests/test_graph.py::TestParamGoodPath", "tests/test_graph.py::TestValidation"]),
    ("a parameter default in _KINDS changes", GRAPH,
     '{"size": (5, _POSITIVE)}', '{"size": (3, _POSITIVE)}',
     ["tests/test_docs.py::test_parameter_table_states_the_kind_table"]),
    ("a bool taken for a positive integer", GRAPH,
     "isinstance(v, int) and type(v) is not bool and v >= 1)", "isinstance(v, int) and v >= 1)",
     ["tests/test_graph.py::TestParamGoodPath"]),
    # the walk's good path: one check per layer signature, anything else worded by the full walk
    ("the memo key drops the value types", GRAPH,
     "*params, *values, *map(type, values))", "*params, *values)",
     ["tests/test_graph.py::TestLayerSignatures::test_an_equal_value_of_another_type_is_checked"]),
    ("the walk's good path skips the arity test", GRAPH,
     "if len(ins) < lo or (hi is not None and len(ins) > hi):", "if False:",
     ["tests/test_graph.py::TestValidation::test_concat_arity"]),
    ("the walk's good path accepts an output named input", GRAPH,
     "or output == INPUT_ID or output not in shapes:", "or output not in shapes:",
     ["tests/test_graph.py::TestLayerSignatures::"
      "test_an_output_naming_the_network_input_is_refused"]),
    # frontier, threshold crossing and trends
    ("an equal total joins the frontier", TRENDS,
     "if not kept or r.total < kept[-1].total:", "if not kept or r.total <= kept[-1].total:",
     ["tests/test_trends.py::TestFrontier"]),
    ("the crossing needs accuracy above the threshold", "src/algoeff/curves.py",
     "if acc >= threshold.value:", "if acc > threshold.value:",
     ["tests/test_curves.py::TestEpochsToThreshold"]),
    # the record loader
    ("repeated record names accepted", TRENDS,
     'if len(set(map(attrgetter("name"), records))) < len(records):', "if False:",
     ["tests/test_trends.py::TestRecordJson"]),
    ("the hook caches thresholds of int and bool values", TRENDS,
     "if type(value) is float and type(metric) is str:",
     "if isinstance(value, (int, float)) and type(metric) is str:",
     ["tests/test_trends.py::TestRecordJson"]),
    ("the hook builds a record object with an unknown field", TRENDS,
     'type(obj) is dict and obj.keys() <= _RECORD_FIELDS and "date" in obj',
     'type(obj) is dict and "date" in obj',
     ["tests/test_trends.py::TestRecordJson"]),
    ("the loader stores the parsed numbers, not the checker's", TRENDS,
     '        t, f, e, i, b = _checked(name, date, threshold, notes, get("total_compute"),\n'
     '                                 get("flops_per_image"), get("epochs"), '
     'get("images_per_epoch"),\n'
     '                                 get("backward_multiplier", BACKWARD_MULTIPLIER))\n',
     '        t, f, e, i, b = (get("total_compute"), get("flops_per_image"), get("epochs"),\n'
     '                         get("images_per_epoch"), '
     'get("backward_multiplier", BACKWARD_MULTIPLIER))\n'
     "        _checked(name, date, threshold, notes, t, f, e, i, b)\n",
     ["tests/test_trends.py::TestLoadedEqualsConstructed"]),
    ("__post_init__ drops the numbers the checker returns", TRENDS,
     "        for label, v in zip(_NUMBER_FIELDS, numbers):\n"
     "            object.__setattr__(self, label, v)\n", "        del numbers\n",
     ["tests/test_trends.py::TestEfficiencyRecord::test_numbers_stored_as_floats",
      "tests/test_trends.py::TestEfficiencyRecord::test_total_from_triple"]),
    ("an unknown name's message lists every record", TRENDS,
     "r.name for r in records[:20]", "r.name for r in records",
     ["tests/test_trends.py::TestFindRecord"]),
    ("the parser's object hook builds no record", TRENDS,
     "TrendError, hook, checked)", "TrendError, None, checked)",
     ["tests/test_trends.py::TestRecordsBuiltWhileParsed::test_a_valid_file_is_parsed_once"]),
    # reports and the command around them
    ("a three percent deviation from a quoted total not flagged", "src/algoeff/reports.py",
     "if abs(dev) > 0.02:", "if abs(dev) > 0.2:",
     ["tests/test_reports.py::TestComputeTable"]),
    ("the collector runs during a command", CLI,
     "    gc.disable()\n", "",
     ["tests/test_cli.py::TestCollectorPaused"]),
    ("a rewritten records file loses its permission bits", CLI,
     "            shutil.copymode(real, tmp)", "            pass",
     ["tests/test_cli.py::TestAnalyze::test_append_replaces_file_and_keeps_its_mode"]),
    # cold start: a graph command executes no curve, record or dataset module
    ("the CLI imports trends eagerly", CLI,
     "from .archflops.zoo import _normalize\n",
     "from .archflops.zoo import _normalize\nfrom .trends import frontier\n",
     ["tests/test_cold_start.py::test_graph_commands_run_no_deferred_module"]),
    ("an exit-2 clause names a curve error", CLI,
     "except (InputError, OSError) as e:", "except (InputError, curves.CurveError, OSError) as e:",
     ["tests/test_cold_start.py::test_help_and_graph_errors_run_no_deferred_module"]),
    # exit codes and numeric text
    ("a threshold never reached exits 2", CLI,
     "            return 3\n", "            return 2\n",
     ["tests/test_cli.py::TestAnalyze::test_threshold_never_reached_is_exit_3"]),
    ("a curve's numbers read with Python's literal syntax", "src/algoeff/curves.py",
     '    if not text.isascii() or text.count("_") > "".join(header).count("_"):',
     "    if False:",
     ["tests/test_curves.py::TestParseCurve::test_numbers_are_ascii_decimals"]),
]

ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


def _pytest(work: Path, tests: list[str]) -> int:
    """pytest's exit code for the tests in the copy, stopping at the first failure."""
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=work, capture_output=True, env=ENV).returncode


def _outcome(work: Path, file: str, old: str, new: str, tests: list[str]) -> str:
    """killed, SURVIVED or broken: ... for one mutant, leaving the copy as it found it."""
    path = work / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return f"broken: old text found {text.count(old)} times"
    path.write_text(text.replace(old, new), encoding="utf-8")
    try:
        code = _pytest(work, tests)
    finally:
        path.write_text(text, encoding="utf-8")
    return {0: "SURVIVED", 1: "killed"}.get(code, f"broken: pytest exit {code}")


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    start = time.perf_counter()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="algoeff-mutants-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, work / sub, ignore=skip)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, work)
        # a test that fails with no mutant in place would kill every mutant it is named for
        if _pytest(work, sorted({t for m in chosen for t in m[4]})) != 0:
            print("the named tests do not all pass without a mutant; no mutant was run")
            return 1
        for name, file, old, new, tests in chosen:
            t = time.perf_counter()
            outcome = _outcome(work, file, old, new, tests)
            failed += outcome != "killed"
            print(f"{outcome:8} {time.perf_counter() - t:5.1f} s  {name}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
