import doctest
import pathlib
import re
import shlex

import pytest

import lehmerpark.armleg
import lehmerpark.bijection
import lehmerpark.counting
import lehmerpark.enumeration
import lehmerpark.paren
import lehmerpark.parking
import lehmerpark.permutation
import lehmerpark.render
import lehmerpark.setpartition
from lehmerpark.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", [
    lehmerpark.permutation,
    lehmerpark.parking,
    lehmerpark.paren,
    lehmerpark.armleg,
    lehmerpark.setpartition,
    lehmerpark.bijection,
    lehmerpark.counting,  # the walk and the recurrences that enumeration imports back
    lehmerpark.enumeration,
    lehmerpark.render,
])
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def _fenced(info: str) -> list[str]:
    """The bodies of README.md's fenced blocks whose info string is `info`, without
    their fences: doctest would read a closing fence as expected output."""
    return re.findall(rf"^```{info}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_library_examples():
    (block,) = _fenced("python")
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md Library", str(README), 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted and not result.failed


def _cli_examples():
    """(argv, stdout) of each README console example whose next lines are its literal
    output; a pipeline, a redirect and a described output are left out."""
    for block in _fenced("console"):
        for example in block.strip().split("\n\n"):
            command, *output = example.split("\n")
            assert command.startswith("$ lehmerpark "), command
            argv = shlex.split(command.removeprefix("$ lehmerpark "))
            if output and not output[0].startswith("...") and not {"|", ">"} & set(argv):
                yield pytest.param(argv, "\n".join(output) + "\n", id=command[2:])


@pytest.mark.parametrize("argv, stdout", _cli_examples())
def test_readme_cli_examples(capsys, argv, stdout):
    assert main(argv) == 0
    assert capsys.readouterr() == (stdout, "")
