"""Shared exception types for the haar_digits package, and the one check of
an integer argument and the one check of a real one."""

import math
import numbers


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its budget before converging."""


class ConsistencyError(RuntimeError):
    """Two supposedly-equal evaluation routes disagreed beyond tolerance."""


def check_int(value, name: str, lo=None, hi=None) -> int:
    """value as a plain int, if it is a Python or NumPy integer or a finite
    float with an integral value (3.0), and is >= lo and <= hi where those
    bounds are given (hi only with lo).

    Anything else raises DomainError naming the parameter: bool (True is not
    the count 1), NaN, +-inf, a non-integral value, a string or any other
    non-number, and a value out of bounds.
    """
    n = None
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        # An int is tested apart: math.isfinite cannot take one past 2^1024.
        if isinstance(value, numbers.Integral) or (math.isfinite(value) and value == int(value)):
            n = int(value)
    if n is None or (lo is not None and n < lo) or (hi is not None and n > hi):
        bounds = f" in [{lo}, {hi}]" if hi is not None else f" >= {lo}" if lo is not None else ""
        raise DomainError(f"{name} must be an integer{bounds}, got {value!r}")
    return n


def check_real(value, name: str, lo=None, hi=None, lo_open=False, hi_open=False) -> float:
    """value as a float, if it is a finite Python or NumPy real that is >= lo
    and <= hi where those bounds are given (hi only with lo); lo_open and
    hi_open make a bound strict (> lo, < hi).

    Anything else raises DomainError naming the parameter: bool, a string or
    any other non-number, NaN, +-inf (every real parameter of the library is
    finite), an int past the double range, and a value out of bounds.
    """
    x = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int past 2^1024
            pass
    ok = math.isfinite(x) and (lo is None or (x > lo if lo_open else x >= lo))
    if not (ok and (hi is None or (x < hi if hi_open else x <= hi))):
        left, right = "(" if lo_open else "[", ")" if hi_open else "]"
        bounds = (
            f" in {left}{lo}, {hi}{right}" if hi is not None
            else f" {'>' if lo_open else '>='} {lo}" if lo is not None else ""
        )
        raise DomainError(f"{name} must be a finite real{bounds}, got {value!r}")
    return x
