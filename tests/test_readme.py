"""The examples in README.md: every Library line with a ``# result`` comment
and every ``grossone --eval`` line of the CLI section with one give what the
comment says."""

import re
import shlex
from enum import Enum
from pathlib import Path

import pytest

from grossone.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> list:
    """The lines of the first ``lang`` code block after ``heading``."""
    section = README[README.index(heading):]
    start = section.index(f"```{lang}\n") + len(f"```{lang}\n")
    return section[start:section.index("```", start)].splitlines()


def _commented(lines: list) -> list:
    """``(code, result)`` for each line that ends in a ``# result`` comment."""
    return [tuple(part.strip() for part in line.split("#", 1)) for line in lines if "#" in line]


LIBRARY = _block("## Library", "python")
LIBRARY_EXAMPLES = _commented(LIBRARY)
CLI_EXAMPLES = [
    (code, result) for code, result in _commented(_block("## CLI", "sh"))
    if re.match(r"grossone (--json )?--eval ", code)
]


def test_the_readme_has_examples_of_both_kinds():
    assert LIBRARY_EXAMPLES
    assert CLI_EXAMPLES


@pytest.mark.parametrize("code, result", LIBRARY_EXAMPLES, ids=[c for c, _ in LIBRARY_EXAMPLES])
def test_library_example(code, result):
    namespace: dict = {}
    exec("\n".join(line for line in LIBRARY if "#" not in line), namespace)
    value = eval(code, namespace)
    assert (str(value) if isinstance(value, Enum) else repr(value)) == result


@pytest.mark.parametrize("code, result", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_cli_example(capsys, code, result):
    assert main(shlex.split(code)[1:]) == 0
    assert capsys.readouterr().out == result + "\n"
