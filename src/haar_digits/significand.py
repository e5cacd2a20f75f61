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
    s, e = _reduce(values, base)
    x = np.asarray(values, dtype=float)
    return s, e, np.where(x > 0, 1, -1).astype(np.int64, copy=False)


def _reduce(values, base: int):
    """(s, e) with |x| = s * B^e and s in [1, B), in the shape of values."""
    base = check_base(base)
    x = np.asarray(values, dtype=float)
    if x.size and not np.all(np.isfinite(x) & (x != 0.0)):
        raise DomainError("significand_parts: values must be finite and nonzero")
    ax = np.abs(x).reshape(-1)
    if ax.size == 0:
        return x.copy(), x.astype(np.int64)
    e = np.log(ax)
    e /= math.log(base)
    idx = np.floor(e, out=e).astype(np.int64)
    del e
    # B^e underflows for the smallest x (10^-324 is 0), so below the least
    # exponent whose power is a normal double, lanes divide in two steps.
    e_min = math.ceil(math.log(np.finfo(float).tiny) / math.log(base))
    # B^k for every k the fix-up below can reach: it moves a lane by at
    # most one per pass and makes at most two passes. Until the end, idx
    # holds k - lo, the table index, so indexing makes no copy of it.
    lo = int(idx.min()) - 2
    idx -= lo
    # Powers past the top of the double range are inf (s = 0, fixed up);
    # those below it are 0 (s = inf, redone in two steps).
    with np.errstate(over="ignore", divide="ignore"):
        table = np.power(float(base), np.arange(lo, int(idx.max()) + lo + 3, dtype=float))
        s = np.take(table, idx)
        np.divide(ax, s, out=s)
        if lo < e_min:
            _divide_in_two_steps(s, ax, idx + lo, base, e_min, idx < e_min - lo)
        for _ in range(2):  # fix log rounding at decade boundaries
            high = s >= base
            low = s < 1.0
            moved = high | low
            if not moved.any():
                break
            idx += high
            idx -= low
            s[moved] = ax[moved] / table[idx[moved]]
            if lo < e_min:
                _divide_in_two_steps(s, ax, idx + lo, base, e_min, moved & (idx < e_min - lo))
    idx += lo
    return s.reshape(x.shape)[()], idx.reshape(x.shape)[()]


def _divide_in_two_steps(s, ax, idx, base: int, e_min: int, lanes) -> None:
    """s = ax / B^idx on the masked lanes, dividing by B^(idx - e_min) and
    then by B^e_min, so that no power is subnormal or zero."""
    b = float(base)
    s[lanes] = ax[lanes] / np.power(b, idx[lanes] - e_min) / np.power(b, e_min)


def significand_values(values, base: int = 10) -> np.ndarray:
    """Vectorized significands of |values| (see significand_parts)."""
    return _reduce(values, base)[0]


def first_digits(values, base: int = 10) -> np.ndarray:
    """Leading digit (1..base-1) of each value's base-B significand."""
    s = significand_values(values, base)
    return np.clip(np.floor(s).astype(np.int64), 1, check_base(base) - 1)
