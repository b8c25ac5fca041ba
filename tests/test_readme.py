"""The README's library quick start runs and prints what its comments say.

Each `print(...)` line of the quick-start block ends in a `# value` comment,
optionally followed by a `(= ...)` aside.  The block is executed as written,
and each printed line is compared with its comment: numbers within 1e-9, the
text around them exactly, with the quotes around a string dropped.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import flagspectra

README = Path(__file__).resolve().parent.parent / "README.md"
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def expected_lines(code: str) -> list[str]:
    out = []
    for line in code.splitlines():
        if line.startswith("print("):
            comment = line.split("#", 1)[1].strip()
            out.append(re.sub(r"\s+\(=.*\)$", "", comment).strip('"'))
    return out


def split_numbers(line: str) -> tuple[str, list[float]]:
    return NUMBER.sub("#", line), [float(m) for m in NUMBER.findall(line)]


def test_quick_start_imports_public_names():
    tree = ast.parse(quick_start())
    names = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) == 12
    assert all(hasattr(flagspectra, name) for name in names)


def test_quick_start_prints_its_comments():
    code = quick_start()
    want = expected_lines(code)
    assert len(want) == 7
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        exec(compile(code, str(README), "exec"), {})
    got = buffer.getvalue().splitlines()
    assert len(got) == len(want)
    for printed, comment in zip(got, want):
        printed_text, printed_numbers = split_numbers(printed)
        comment_text, comment_numbers = split_numbers(comment)
        assert printed_text == comment_text, (printed, comment)
        assert printed_numbers == pytest.approx(comment_numbers, abs=1e-9), (printed, comment)
