"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE).group(1)
    expected = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
