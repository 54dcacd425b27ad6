"""README.md's examples run as written: each ```python block, in a fresh
namespace, with its printed lines captured."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_the_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_each_readme_python_block_runs(source):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
    assert printed.getvalue()
