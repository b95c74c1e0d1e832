"""Which modules a fresh process executes for a command.

The CLI loads curves, trends and datasets on first use, so a graph
command (flops, shapes) runs none of them and no decimal import either.
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

# Runs main on argv, then prints on stderr's last line which deferred modules
# have executed and whether decimal was imported.
CHILD = f"""
import json, sys
from algoeff.cli import main
code = main(sys.argv[1:])
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
