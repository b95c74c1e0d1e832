"""The package's sources stay within the oldest Python that pyproject.toml allows, and
each public name has one import path: the module that defines it."""
import ast
import importlib
import os
import re
import subprocess
import sys
import types
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


def test_shared_constants_keep_their_old_paths():
    # the package holds them so that building the CLI's parser executes neither module
    import algoeff
    import algoeff.curves
    import algoeff.trends

    for module in (algoeff.curves, algoeff.trends):
        assert module.IMAGES_PER_EPOCH is algoeff.IMAGES_PER_EPOCH
        assert module.BACKWARD_MULTIPLIER is algoeff.BACKWARD_MULTIPLIER
    assert algoeff.trends.UNIT_DIVISORS is algoeff.UNIT_DIVISORS


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


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module that path imports from or imports, at any depth."""
    package = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts[:-1])
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            names.add(module)
            names.update(f"{module}.{a.name}" for a in node.names)
    return names


@pytest.mark.parametrize("name", ["archflops/counting.py", "reports.py"])
def test_commands_read_shapes_from_the_walks_owner(name):
    # graph.py owns the walk's shape map; the copying infer_shapes is for library callers
    imported = _imported_modules(ROOT / "src" / "algoeff" / name)
    assert "algoeff.archflops.graph.walked_shapes" in imported
    assert not any(m.startswith("algoeff.archflops.shapes") or m.endswith(".infer_shapes")
                   for m in imported), imported


def test_shapes_module_keeps_only_infer_shapes():
    from algoeff.archflops import ShapeError, infer_shapes

    tree = ast.parse((ROOT / "src" / "algoeff" / "archflops" / "shapes.py").read_text("utf-8"))
    defined = [n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    assert defined == ["infer_shapes"]
    assert not any(isinstance(n, (ast.Assign, ast.AnnAssign)) for n in tree.body)
    assert not any("_walked_shapes" in p.read_text(encoding="utf-8") for p in SOURCES)
    assert (ShapeError.__module__, infer_shapes.__module__) == (
        "algoeff.archflops.graph", "algoeff.archflops.shapes")


def _calls_json_loads(path: Path) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return "json.loads" in _imported_modules(path) or any(
        isinstance(n, ast.Attribute) and n.attr == "loads"
        and isinstance(n.value, ast.Name) and n.value.id == "json" for n in ast.walk(tree))


def test_one_module_parses_json_inputs():
    # _jsonfile owns the parser call and the retry; no module reaches into trends' privates
    parsers = [p.relative_to(ROOT / "src").as_posix() for p in SOURCES if _calls_json_loads(p)]
    assert parsers == ["algoeff/_jsonfile.py"]
    private = {p.name: m for p in SOURCES for m in _imported_modules(p)
               if m.startswith("algoeff.trends._")}
    assert not private, private


def _private_reaches(path: Path) -> list[str]:
    """Each ``module._name`` in path whose module is another algoeff module.

    The module's namespace at run time tells which names are modules, so the
    CLI's deferred modules count too.
    """
    name = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts).removesuffix(".__init__")
    modules = {k for k, v in vars(importlib.import_module(name)).items()
               if isinstance(v, types.ModuleType) and v.__name__.startswith("algoeff.")
               and v.__name__ != name}
    return [f"{n.value.id}.{n.attr}" for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in modules and n.attr.startswith("_") and not n.attr.startswith("__")]


def test_no_module_reaches_another_modules_private_names():
    reaches = {p.relative_to(ROOT / "src").as_posix(): r for p in SOURCES
               if (r := _private_reaches(p))}
    assert not reaches, reaches
