import math
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
