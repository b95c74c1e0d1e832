"""README's examples run as written, and the facts it restates match the code that owns them."""
import contextlib
import io
import json
import re
from pathlib import Path

import algoeff.archflops.graph as graph_mod
from algoeff.archflops import arch_from_json
from algoeff.archflops.zoo import _GRAPHS

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _python_api_example() -> str:
    return re.search(r"```python\n(.*?)```", _section("Python API"), re.S).group(1)


def test_python_api_example_prints_its_commented_values():
    code = _python_api_example()
    commented = re.findall(r"^print\(.*\)\s+# ([0-9.]+?)\.\.\.", code, re.M)
    assert commented == ["0.1449", "15.85", "44.42"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"{README.name} (Python API)", "exec"), {})
    printed = out.getvalue().split()
    assert len(printed) == len(commented)
    for value, digits in zip(printed, commented):
        assert value.startswith(digits), (value, digits)


def _names(cell: str) -> list[str]:
    """The names of a table cell such as "`stride`, `dilation`, `groups`"."""
    return re.findall(r"`([^`]+)`", cell)


def _parameter_rows() -> list[tuple[str, str, str, str]]:
    """(kind, parameter, default, accepted) of each pair the parameter table lists.

    A row with an empty kind cell continues the kind above it; a "none" row
    gives each of its kinds the parameter "none".
    """
    table = re.findall(r"^\|(.*)\|$", _section("Describing an architecture"), re.M)
    rows, kinds = [], []
    for line in table[2:]:  # past the header and its rule
        kind_cell, param_cell, default, accepted = (c.strip() for c in line.split("|"))
        kinds = _names(kind_cell) or kinds
        params = ["none"] if param_cell == "none" else _names(param_cell)
        rows += [(k, p, default, accepted) for k in kinds for p in params]
    return rows


def _default_cell(default) -> str:
    if default is graph_mod._REQUIRED:
        return "required"
    if default is None:
        return "the kernel"  # the pool stride's, the one default of None
    return f"`{json.dumps(default)}`" if isinstance(default, (bool, str)) else json.dumps(default)


def _quoted(description: str) -> str:
    """The README's form of a description: JSON literals in backticks."""
    return re.sub(r"\b(true|false)\b", r"`\1`", description)


def test_parameter_table_states_the_kind_table():
    rows = _parameter_rows()
    pairs = [(kind, name) for kind, name, _, _ in rows]
    assert len(pairs) == len(set(pairs))
    assert {k for k, name in pairs if name == "none"} == {
        k for k, kind in graph_mod._KINDS.items() if not kind.params}
    listed = {(kind, name): (default, accepted) for kind, name, default, accepted in rows
              if name != "none"}
    schema = {(k, name): (_default_cell(default), _quoted(description.removeprefix("a ")))
              for k, kind in graph_mod._KINDS.items()
              for name, (default, (description, _)) in kind.params.items()}
    default, accepted = schema["conv2d", "out_channels"]
    schema["conv2d", "out_channels"] = default, f"{accepted}, a multiple of `groups`"
    assert listed == schema


def test_builtin_list_is_the_registry_in_order():
    section = _section("Describing an architecture")
    listed = section.split("Built-ins:\n\n", 1)[1].split(".\n", 1)[0]
    assert re.split(r",\s+", listed) == list(_GRAPHS)


def test_graph_file_example_loads():
    section = _section("Describing an architecture")
    text = re.search(r"A graph file:\n\n```json\n(.*?)```", section, re.S).group(1)
    arch = arch_from_json(text)
    assert (arch.name, len(arch.nodes), arch.output) == ("tiny", 4, "fc")
