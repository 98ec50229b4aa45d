"""Probe for ``tests/test_pytest_config.py``; its name keeps it out of the
suite.  One hypothesis test always fails, and one plain test after it passes."""

from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(database=None)
def test_fails_on_any_integer(x):
    assert x != x


def test_runs_after_the_failure():
    pass
