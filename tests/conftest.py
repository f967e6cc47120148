import math
import sys
import time

import pytest


@pytest.fixture
def best_of_three():
    """Run an action three times and give the least wall-clock seconds with
    the last result.  A time limit checked on one sample fails whenever a
    shared host has a slow moment; the least of three measures the code."""

    def measure(action):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            result = action()
            best = min(best, time.perf_counter() - start)
        return best, result

    return measure


@pytest.fixture
def digit_limit():
    """The interpreter's default limit of 4300 digits on int/str conversions,
    in force for the test and restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this build has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)
