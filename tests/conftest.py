"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def digit_limit():
    """Python's default int <-> str digit limit for the test, where it has one."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield None
        return
    saved = get()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)
