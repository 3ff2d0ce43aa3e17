"""README's library examples, run as a doctest."""

import doctest
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_examples():
    failures, tried = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert failures == 0 and tried > 0
