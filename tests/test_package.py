"""The package docstring's quickstart runs as written."""

import doctest

import weylstd


def test_package_docstring_examples():
    result = doctest.testmod(weylstd)
    assert result.attempted > 0
    assert result.failed == 0
