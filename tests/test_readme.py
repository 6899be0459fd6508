"""The README's library quick start runs and prints what its comments say,
and its exit-code table lists the codes the CLI defines."""

import contextlib
import io
import re
from collections import Counter
from pathlib import Path

from qperm import cli

from .mutants import MUTANTS

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


def test_the_exit_code_table_lists_every_code_of_the_cli():
    text = README.read_text(encoding="utf-8")
    table = text.split("\nExit codes:\n\n", 1)[1].split("\n\n", 1)[0]
    documented = [int(code) for code in re.findall(r"^\| (\d+) \|", table, re.MULTILINE)]
    assert documented == sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))


def test_the_mutant_counts_are_those_of_the_gate():
    """The Tests section once gave 56 mutants when the gate held 58."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = r"Its (\d+) mutants are spread over \w+ modules: (.*?)\.(?: |$)"
    total, modules = re.search(sentence, text).groups()
    documented = {name: int(count) for name, count in re.findall(r"`(\w+\.py)` (\d+)", modules)}
    assert int(total) == len(MUTANTS)
    assert documented == dict(Counter(mutant.file for mutant in MUTANTS))
