import dataclasses
import math

import numpy as np
import pytest

from hypfrac.errors import HypfracError


def approx(expected, rel=1e-6, abs=0.0):
    """``pytest.approx`` at the tolerance it states.  pytest's default
    abs=1e-12 decides wherever rel |expected| < 1e-12, where it checks
    nothing on a small value; here abs is 0 unless a test states its own.
    rel defaults to pytest's 1e-6."""
    return pytest.approx(expected, rel=rel, abs=abs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


def _numbers(out):
    """Every number in a return value: a float, an array, or a tuple or
    dataclass of them."""
    if dataclasses.is_dataclass(out):
        out = dataclasses.astuple(out)
    if isinstance(out, (tuple, list)):
        for item in out:
            yield from _numbers(item)
    elif isinstance(out, np.ndarray):
        yield from out.ravel().tolist()
    else:
        # a Python float, not a numpy scalar (whose arithmetic warns where a
        # float's raises), nor an int or None
        assert type(out) is float, out
        yield out


def finite_or_typed(fn, *args):
    """fn(*args) when every number it returns is finite, None when it raises
    a typed error: the contract of every public entry.  Any other exception
    fails the test, and so does a RuntimeWarning (``filterwarnings`` in
    pyproject.toml)."""
    try:
        out = fn(*args)
    except HypfracError:
        return None
    assert all(map(math.isfinite, _numbers(out))), (fn.__name__, args, out)
    return out
