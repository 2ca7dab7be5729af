"""Exception types shared across the package, and the checks of its numbers.

Input policy: a public entry takes any real number, a numpy scalar included,
as the float it holds, and checks it once, on entry, with one of the four
checks below: ``finite``, ``positive`` (finite and > 0), ``nonnegative``
(finite and >= 0) and ``order`` (the order gamma, in (0, 1)).  Each returns
the float, so that no numpy scalar carries numpy's arithmetic, which warns
where a float's raises, into the code behind the entry; each refuses nan and
the infinities with ``DomainError``.  Ranges of any other kind (an interval
other than these, one number against another, an integer) are checked where
they are used.
"""

import math


class HypfracError(Exception):
    """Base class for all package errors."""


class DomainError(HypfracError, ValueError):
    """An argument violates a documented precondition."""


class UnsupportedRangeError(DomainError):
    """An argument is valid mathematically but outside the supported range."""


class NumericError(HypfracError, RuntimeError):
    """A numerical procedure failed to converge or lost too much accuracy."""


class CalibrationError(NumericError):
    """A self-calibration step (e.g. transform round trip) missed its tolerance."""


def finite(x, name: str) -> float:
    """x as a float, once it is finite (``DomainError`` otherwise)."""
    x = float(x)
    if not -math.inf < x < math.inf:
        raise DomainError(f"{name} must be finite")
    return x


def positive(x, name: str) -> float:
    """x as a float, once it is finite and positive (``DomainError`` otherwise)."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be finite and positive")
    return x


def nonnegative(x, name: str) -> float:
    """x as a float, once it is finite and nonnegative (``DomainError`` otherwise)."""
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} must be finite and nonnegative")
    return x


def order(gamma) -> float:
    """gamma as a float, once it lies in (0, 1) (``DomainError`` otherwise)."""
    gamma = float(gamma)
    if not 0.0 < gamma < 1.0:
        raise DomainError("gamma must lie in (0, 1)")
    return gamma
