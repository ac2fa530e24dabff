"""The package docstring's and the README's examples run as written."""

import doctest
from pathlib import Path

import weylstd

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_docstring_examples():
    result = doctest.testmod(weylstd)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_quickstart():
    result = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert result.attempted > 0
    assert result.failed == 0
