"""The benchmark tracer's targets name functions the package still has.

bench/tracing.py wraps algoeff functions that it names by module and
attribute. A function renamed or moved would otherwise only show up as
a crash of a traced benchmark run, so every entry is checked here.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


@pytest.mark.parametrize("span,module,attr,hook", TRACING.TARGETS,
                         ids=[f"{module}.{attr}" for _, module, attr, _ in TRACING.TARGETS])
def test_target_is_a_callable_in_an_algoeff_module(span, module, attr, hook):
    assert module == "algoeff" or module.startswith("algoeff.")
    assert span.split(".", 1)[0] in TRACING.LAYERS
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_counted_record_total_is_a_property():
    from algoeff.trends import EfficiencyRecord

    assert isinstance(EfficiencyRecord.__dict__["total"], property)


def test_tracer_sees_each_report_table_and_one_frontier(capsys):
    from algoeff import cli

    tracer = TRACING.Tracer()
    assert tracer.run(cli.main, ["report", "--figures"]) == 0
    capsys.readouterr()
    names = [span[0] for span in tracer.spans]
    assert names.count("reports.tables") == 6
    assert names.count("trends.frontier") == 1
