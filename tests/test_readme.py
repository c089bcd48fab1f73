"""README's examples print what README shows, and its promise on hashing holds."""

import contextlib
import io
from pathlib import Path

import pytest

from pactkit import discrete
from pactkit.cli import main
from pactkit.fixtures import fix_c

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the line ``heading``."""
    start = README.index("\n```" + language + "\n", README.index(heading)) + len(language) + 5
    return README[start : README.index("\n```", start) + 1]


def test_the_api_taste_prints_the_line_its_comment_shows():
    code = fenced("## A taste of the API", "python")
    shown = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    assert len(shown) == 1 and printed.getvalue().splitlines() == shown


def test_the_bypass_example_shows_the_lines_the_command_prints(capsys):
    command, *shown = fenced("`--bypass-validation` loads", "sh").splitlines()
    assert command.startswith("pactkit orbits remark-x ")
    main(command.split()[1:])
    assert capsys.readouterr().out.splitlines() == [line.removeprefix("# ") for line in shown]


def test_groupoids_actions_and_topologies_are_unhashable_by_name():
    A = fix_c()
    for value in (A.groupoid, A, discrete(["a"])):
        with pytest.raises(TypeError, match=f"unhashable type: '{type(value).__name__}'"):
            hash(value)
