"""README's Python API example runs as written and prints what its comments say."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_api_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
