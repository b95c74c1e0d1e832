"""Which modules a fresh process executes for a command.

The CLI loads curves, trends and datasets on first use, so a graph
command (flops, shapes), --help, a usage error and a graph command's
error exit run none of them and no decimal import either.
Each check runs in its own interpreter, because pytest's process has
long since imported everything. A module's dict is read with
object.__getattribute__, which does not trigger a deferred load; the
dict holds __builtins__ once the module's code has run.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from _generators import chain_graph_json

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
DEFERRED = ("curves", "datasets", "trends")

# Runs main on argv, then prints on stderr's last line its exit code, which
# deferred modules have executed and whether decimal was imported.
CHILD = f"""
import json, sys
from algoeff.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as e:  # --help
    code = e.code
ran = [n for n in {DEFERRED!r} if f"algoeff.{{n}}" in sys.modules and "__builtins__" in
       object.__getattribute__(sys.modules[f"algoeff.{{n}}"], "__dict__")]
print(json.dumps([code, ran, "decimal" in sys.modules]), file=sys.stderr)
"""


def _executed(*argv: str):
    run = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
                         env=ENV, check=True)
    return tuple(json.loads(run.stderr.splitlines()[-1]))


@pytest.mark.parametrize("argv", [
    ("flops", "AlexNet"),
    ("shapes", "DenseNet121"),
    ("flops", "{file}", "--per-layer"),
])
def test_graph_commands_run_no_deferred_module(tmp_path, argv):
    path = tmp_path / "g.json"
    path.write_text(chain_graph_json(4), encoding="utf-8")
    assert _executed(*(a.format(file=path) for a in argv)) == (0, [], False)


@pytest.mark.parametrize("argv,code", [
    (("--help",), 0),
    (("flops", "--help"), 0),
    (("frobnicate",), 1),
    (("flops", "{dir}/missing.json"), 2),
    (("flops", "{dir}/text.json"), 2),
    (("shapes", "{dir}/latin1.json"), 2),
    (("flops", "{dir}/invalid.json"), 2),
    (("shapes", "LeNet"), 2),
    (("flops", "AlexNet", "--input", "3x0x8"), 2),
    (("flops", "AlexNet", "--counted-kinds", "bogus"), 2),
], ids=["help", "flops-help", "usage", "missing", "not-json", "not-utf8", "invalid-graph",
        "unknown-builtin", "bad-input", "bad-counted-kinds"])
def test_help_and_graph_errors_run_no_deferred_module(tmp_path, argv, code):
    # the except clauses that map an error to its exit code name no deferred module's class
    (tmp_path / "text.json").write_text("not json", encoding="utf-8")
    (tmp_path / "latin1.json").write_bytes(b'{"name": "caf\xe9"}')
    (tmp_path / "invalid.json").write_text('{"name": "g", "nodes": []}', encoding="utf-8")
    assert _executed(*(a.format(dir=tmp_path) for a in argv)) == (code, [], False)


def test_report_figures_runs_every_deferred_module():
    assert _executed("report", "--figures") == (0, list(DEFERRED), True)


def test_library_import_gets_ordinary_modules():
    code = ("import sys, types, algoeff.reports; "
            "print([type(sys.modules[f'algoeff.{n}']) is types.ModuleType "
            "for n in ('curves', 'trends')], 'algoeff.datasets' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=ENV, check=True)
    assert run.stdout == "[True, True] False\n"


def test_traced_graph_command_loads_what_the_tracer_wraps(tmp_path):
    # bench/tracing.py looks every target up in sys.modules, deferred ones included
    spans = tmp_path / "spans.json"
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "trace_child.py"), str(spans),
                          "flops", "AlexNet"], capture_output=True, text=True, env=ENV)
    assert run.returncode == 0, run.stderr
    names = {s[0] for s in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    assert {"zoo.builtin_arch", "counting.count_flops", "reports.render"} <= names
