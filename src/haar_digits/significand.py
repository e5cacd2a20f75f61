"""Base-B significand decomposition of nonzero reals.

Every finite x != 0 factors uniquely as |x| = s * B^e with s in [1, B) and
integer e; s is the significand of x in base B and floor(s) its leading
digit. s is |x| divided by B^e rounded once to the nearest double, so the
double nearest an exact power of B (1e-5, say) has significand exactly 1;
the reconstruction s * B^e matches |x| to a few ulp.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._frozen import Frozen
from .errors import DomainError, check_int, check_real

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
    return check_int(base, "base", 2)


class SignificandDecomposition(Frozen):
    """|x| = significand * base^exponent, significand in [1, base)."""

    _fields = ("significand", "exponent", "sign")

    def __init__(self, significand: float, exponent: int, sign: int):
        self._set(significand=significand, exponent=exponent, sign=sign)


def significand(x: float, base: int = 10) -> SignificandDecomposition:
    """Decompose a nonzero finite real into sign, significand and exponent.

    Thin scalar wrapper over significand_parts so scalar and vectorized
    callers agree bit-for-bit.
    """
    s, e, sg = significand_parts(np.array([check_real(x, "x")]), base)  # refuses x = 0
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
    s, e = _reduce_finite(x.reshape(-1), base)
    return s.reshape(x.shape)[()], e.reshape(x.shape)[()]


def _reduce_finite(x: np.ndarray, base: int):
    """_reduce of a flat array of finite nonzero doubles and a checked base,
    which it takes on trust: (s, e) as flat arrays."""
    ax = np.abs(x)
    if ax.size == 0:
        return ax, ax.astype(np.int64)
    e = np.log(ax)
    e /= math.log(base)
    idx = np.floor(e, out=e).astype(np.int64)
    del e
    # B^e underflows for the smallest x (10^-324 is 0), so below the least
    # exponent whose power is a normal double, lanes divide in two steps, by
    # B^(e - e_min) and then by B^e_min. The fix-up below moves a lane by at
    # most one per pass and makes at most two passes.
    e_min = math.ceil(math.log(np.finfo(float).tiny) / math.log(base))
    two_step = idx.min() - 2 < e_min
    # Until the end, idx holds k - lo, the table index, so indexing makes no
    # copy of it.
    lo, table = _powers(base)
    idx -= lo

    def divide_in_two_steps(lanes):
        s[lanes] = ax[lanes] / table[idx[lanes] - e_min] / table[e_min - lo]

    # Powers past the top of the double range are inf (s = 0, fixed up);
    # those below it are 0 (s = inf, redone in two steps).
    with np.errstate(over="ignore", divide="ignore"):
        s = np.take(table, idx)
        np.divide(ax, s, out=s)
        if two_step:
            divide_in_two_steps(idx < e_min - lo)
        for _ in range(2):  # fix log rounding at decade boundaries
            high = s >= base
            low = s < 1.0
            moved = high | low
            if not moved.any():
                break
            idx += high
            idx -= low
            s[moved] = ax[moved] / table[idx[moved]]
            if two_step:
                divide_in_two_steps(moved & (idx < e_min - lo))
    idx += lo
    return s, idx


@functools.lru_cache(maxsize=64)
def _powers(base: int):
    """(lo, table): table[k - lo] is B^k rounded once for every k that _reduce
    can reach, 0 below the least subnormal and inf past the largest double."""
    log_b = math.log(base)
    lo = math.floor(math.log(math.ulp(0.0)) / log_b) - 3
    hi = math.ceil(math.log(np.finfo(float).max) / log_b) + 3
    return lo, np.array([_power(base, k) for k in range(lo, hi + 1)])


def _power(base: int, k: int) -> float:
    """B^k rounded once: integer arithmetic is exact up to the one correctly
    rounded int-to-float conversion or division (np.power misses B^k by an
    ulp at 10^-5 and 10^106)."""
    try:
        return float(base**k) if k >= 0 else 1 / base**-k
    except OverflowError:
        return math.inf


def significand_values(values, base: int = 10) -> np.ndarray:
    """Vectorized significands of |values| (see significand_parts)."""
    return _reduce(values, base)[0]


def first_digits(values, base: int = 10) -> np.ndarray:
    """Leading digit (1..base-1) of each value's base-B significand."""
    s = significand_values(values, base)
    return np.clip(np.floor(s).astype(np.int64), 1, check_base(base) - 1)
