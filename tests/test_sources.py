"""The package's sources stay within the oldest Python that pyproject.toml allows, and
each public name has one import path: the module that defines it."""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "algoeff").rglob("*.py"))


def _python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_floor_is_3_10():
    assert _python_floor() == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_python_floor())


def test_importing_the_package_loads_no_submodule():
    code = ("import algoeff, sys; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'algoeff'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == "['algoeff']\n"


# Every name the package once re-exported, under the one module that owns it.
# Graph names keep their facade, algoeff.archflops.
_OWNERS = {
    "algoeff.archflops": (
        "ArchitectureSpec", "CountingConvention", "FlopCount", "GraphError", "ShapeError",
        "TensorShape", "arch_from_json", "builtin_arch", "count_flops", "infer_shapes",
    ),
    "algoeff.curves": (
        "ComputeCurve", "CurveError", "DominanceResult", "LearningCurve", "Threshold",
        "ThresholdNotReached", "compute_to_threshold", "dominance", "epochs_to_threshold",
        "parse_curve", "to_compute_curve", "training_compute",
    ),
    "algoeff.trends": (
        "Decomposition", "EffectiveComputeModel", "EfficiencyFactor", "EfficiencyRecord",
        "Frontier", "TrendFit", "decompose", "doubling_time", "effective_compute",
        "efficiency_factor", "fit_trend", "frontier", "moore_factor", "partial_run_factor",
        "records_from_json", "records_to_json", "to_report_units",
    ),
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in _OWNERS.items() for n in names])
def test_name_imports_from_its_owner(module, name):
    obj = getattr(importlib.import_module(module), name)
    assert obj.__module__ == module or obj.__module__.startswith(f"{module}.")


@pytest.mark.parametrize("name", ["archflops", "curves", "datasets", "reports", "trends"])
def test_module_imports_by_its_path(name):
    assert importlib.import_module(f"algoeff.{name}").__name__ == f"algoeff.{name}"
