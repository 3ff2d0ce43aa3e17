"""README's library examples, run as a doctest; its CLI examples; its names."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

import abjadnum
from support import run_cli

README = Path(__file__).parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")

# `abjadnum ARGS  # OUTPUT`: OUTPUT is the first line printed, or its start
# when it ends in "...".
CLI_EXAMPLES = [tuple(part.strip() for part in line.split(" # "))
                for line in TEXT.splitlines()
                if line.startswith("abjadnum ") and " # " in line]


def test_readme_examples():
    failures, tried = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert failures == 0 and tried > 0


def test_the_readme_has_cli_examples():
    # An empty list would leave the parametrized case below with nothing to run.
    assert CLI_EXAMPLES


@pytest.mark.parametrize("command, output", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_readme_cli_examples_print_their_comments(command, output):
    code, out, _ = run_cli(shlex.split(command)[1:])
    assert code == 0, command
    first = out.split("\n")[0]
    if output.endswith("..."):
        output = output[:-3].rstrip()
        first = first[:len(output)]
    assert first == output


@pytest.mark.parametrize("name", abjadnum.__all__)
def test_every_public_name_is_in_the_readme(name):
    assert re.search(rf"\b{name}\b", TEXT), name
