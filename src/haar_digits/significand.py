"""Base-B significand decomposition of nonzero reals.

Every finite x != 0 factors uniquely as |x| = s * B^e with s in [1, B) and
integer e; s is the significand of x in base B and floor(s) its leading
digit. The reconstruction s * B^e matches |x| to a few ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "SignificandDecomposition",
    "check_base",
    "significand",
    "significand_values",
    "significand_parts",
    "first_digits",
]


def check_base(base: int) -> int:
    """Validate an integer base B >= 2 and return it as a plain int."""
    if isinstance(base, bool) or int(base) != base or base < 2:
        raise DomainError(f"base must be an integer >= 2, got {base!r}")
    return int(base)


@dataclass(frozen=True)
class SignificandDecomposition:
    """|x| = significand * base^exponent, significand in [1, base)."""

    significand: float
    exponent: int
    sign: int


def significand(x: float, base: int = 10) -> SignificandDecomposition:
    """Decompose a nonzero finite real into sign, significand and exponent.

    Thin scalar wrapper over significand_parts so scalar and vectorized
    callers agree bit-for-bit (pow implementations differ in the last ulp
    at exact powers of the base, so two code paths would drift apart).
    """
    x = float(x)
    if x == 0.0 or not math.isfinite(x):
        raise DomainError(f"significand undefined for x={x!r}")
    s, e, sg = significand_parts(np.array([x]), base)
    return SignificandDecomposition(float(s[0]), int(e[0]), int(sg[0]))


def significand_parts(values, base: int = 10):
    """Vectorized decomposition: (significands, exponents, signs) arrays.

    Zero or non-finite entries raise DomainError; callers that need to
    tolerate them should filter first (see stats.build_empirical).
    """
    base = check_base(base)
    x = np.asarray(values, dtype=float)
    if x.size and not np.all(np.isfinite(x) & (x != 0.0)):
        raise DomainError("significand_parts: values must be finite and nonzero")
    ax = np.abs(x)
    e = np.floor(np.log(ax) / math.log(base))
    # B^e underflows for the smallest x (10^-324 is 0), so divide by it in
    # two steps: B^(e - e_hi), then B^e_hi with e_hi >= the least exponent
    # whose power is a normal double. Above that exponent the first divisor
    # is exactly 1.
    e_min = math.ceil(math.log(np.finfo(float).tiny) / math.log(base))
    s = _divide_power(ax, base, e, e_min)
    for _ in range(2):  # fix log rounding at decade boundaries
        high = s >= base
        low = s < 1.0
        if not (high.any() or low.any()):
            break
        e = e + high - low
        s = _divide_power(ax, base, e, e_min)
    return s, e.astype(np.int64), np.where(x > 0, 1, -1).astype(np.int64)


def _divide_power(ax, base: int, e, e_min: int):
    """ax / base^e without forming a subnormal or zero power."""
    e_hi = np.maximum(e, e_min)
    with np.errstate(over="ignore"):  # an e one too high at the top gives s = 0, fixed up
        return ax / np.power(float(base), e - e_hi) / np.power(float(base), e_hi)


def significand_values(values, base: int = 10) -> np.ndarray:
    """Vectorized significands of |values| (see significand_parts)."""
    return significand_parts(values, base)[0]


def first_digits(values, base: int = 10) -> np.ndarray:
    """Leading digit (1..base-1) of each value's base-B significand."""
    s = significand_values(values, base)
    return np.clip(np.floor(s).astype(np.int64), 1, check_base(base) - 1)
