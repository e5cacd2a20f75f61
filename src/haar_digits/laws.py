"""Analytic leading-digit (significand) laws on [1, B).

Each law exposes a CDF and density in the significand variable s in [1, B]
plus the induced first-digit probability vector (digits 1..B-1). Laws accept
scalar or numpy-array s and validate the domain.

Variants here are the closed-form scalar families; the sphere-coordinate
families live in haar_digits.sphere and subclass DigitLaw.
"""

from __future__ import annotations

import math

import numpy as np

from ._frozen import Frozen
from .errors import DomainError, check_int, check_real
from .significand import check_base, significand

__all__ = [
    "DigitLaw",
    "Benford",
    "PowerLaw",
    "UniformSignificand",
    "FlatWindowSignificand",
    "ProductLaw",
    "windowed_power_cdf",
]


def _check_sig(s, base: int):
    """s as a float array, refused unless every point lies in [1, base], and
    whether s was a scalar: the one check of a significand argument."""
    # C order: NumPy's vectorized log gives a point the same bits in any layout.
    arr = np.asarray(s, dtype=float, order="C")
    if not ((arr >= 1.0) & (arr <= base)).all():  # also rejects NaN
        raise DomainError(
            f"significand must lie in [1, {base}], got range [{arr.min()}, {arr.max()}]"
        )
    return arr, np.isscalar(s) or np.ndim(s) == 0


class DigitLaw:
    """Common behaviour for significand laws; subclasses set ``base``.

    ``cdf`` is pointwise (a point's value does not depend on the other points
    of the call) and nondecreasing to within 1e-9; the KS sweep relies on both.
    """

    base: int

    @staticmethod
    def _ret(arr, scalar):
        return float(arr) if scalar else arr

    def cdf(self, s):
        raise NotImplementedError

    def density(self, s):
        raise NotImplementedError

    def first_digit_probs(self) -> np.ndarray:
        """P(leading digit = d) for d = 1..base-1; sums to 1."""
        edges = np.arange(1, self.base + 1, dtype=float)
        c = self.cdf(edges)
        return np.diff(c)


class Benford(DigitLaw, Frozen):
    """Logarithmic significand law: CDF log_B(s), density 1/(s ln B)."""

    _fields = ("base",)

    def __init__(self, base: int = 10):
        self._set(base=check_base(base))

    def cdf(self, s):
        arr, scalar = _check_sig(s, self.base)
        return self._ret(np.log(arr) / math.log(self.base), scalar)

    def density(self, s):
        arr, scalar = _check_sig(s, self.base)
        return self._ret(1.0 / (arr * math.log(self.base)), scalar)


class PowerLaw(DigitLaw, Frozen):
    """Significand law of a density proportional to x^(-k) across decades.

    Density on [1, B): c * s^(-k) with c = (k-1) B^(k-1) / (B^(k-1) - 1);
    CDF (1 - s^(1-k)) / (1 - B^(1-k)). k = 1 is exactly the Benford law and
    the formulas approach it continuously (expm1-based evaluation keeps
    k near 1 stable).
    """

    _fields = ("base", "k")

    def __init__(self, base: int = 10, k: float = 2.0):
        self._set(base=check_base(base), k=check_real(k, "k", 0, lo_open=True))

    def cdf(self, s):
        arr, scalar = _check_sig(s, self.base)
        if self.k == 1.0:
            return self._ret(np.log(arr) / math.log(self.base), scalar)
        one_minus_k = 1.0 - self.k
        # (1 - s^(1-k)) / (1 - B^(1-k)) = expm1((1-k) ln s) / expm1((1-k) ln B).
        # At a huge k the product overflows to -inf, and expm1(-inf) = -1 is
        # the limit, so that overflow is no error.
        with np.errstate(over="ignore"):
            num = np.expm1(one_minus_k * np.log(arr))
        den = math.expm1(one_minus_k * math.log(self.base))
        return self._ret(num / den, scalar)

    def density(self, s):
        arr, scalar = _check_sig(s, self.base)
        if self.k == 1.0:
            return self._ret(1.0 / (arr * math.log(self.base)), scalar)
        # c = (k-1) B^(k-1) / (B^(k-1) - 1) = (k-1) / -expm1((1-k) ln B)
        c = (self.k - 1.0) / -math.expm1((1.0 - self.k) * math.log(self.base))
        return self._ret(c * np.power(arr, -self.k), scalar)


class UniformSignificand(DigitLaw, Frozen):
    """Flat significand law: CDF (s-1)/(B-1), the anti-Benford control."""

    _fields = ("base",)

    def __init__(self, base: int = 10):
        self._set(base=check_base(base))

    def cdf(self, s):
        arr, scalar = _check_sig(s, self.base)
        return self._ret((arr - 1.0) / (self.base - 1.0), scalar)

    def density(self, s):
        arr, scalar = _check_sig(s, self.base)
        out = np.full_like(arr, 1.0 / (self.base - 1.0))
        return self._ret(out, scalar)


class FlatWindowSignificand(DigitLaw, Frozen):
    """Significand law of a coordinate uniform on [-eps, eps].

    With eps = t B^e, t in [1, B): the top partial decade [B^e, t B^e)
    holds (t - 1)/t of the mass with a flat significand on [1, t), and the
    whole decades below it hold 1/t with a flat significand on [1, B), so
    CDF [min(s, t) - 1 + (s - 1)/(B - 1)] / t. t = 1 (eps a power of B)
    is UniformSignificand.
    """

    _fields = ("base", "eps")  # t follows from them

    def __init__(self, base: int = 10, eps: float = 1.0):
        base, eps = check_base(base), check_real(eps, "eps", 0, lo_open=True)
        self._set(base=base, eps=eps, t=significand(eps, base).significand)

    def cdf(self, s):
        arr, scalar = _check_sig(s, self.base)
        out = np.minimum(arr, self.t) - 1.0 + (arr - 1.0) / (self.base - 1.0)
        return self._ret(out / self.t, scalar)

    def density(self, s):
        arr, scalar = _check_sig(s, self.base)
        out = np.where(arr < self.t, 1.0, 0.0) + 1.0 / (self.base - 1.0)
        return self._ret(out / self.t, scalar)


class ProductLaw(Frozen):
    """Joint law of independent components, one DigitLaw per coordinate.

    cdf/density take one significand per component. Scalar-law operations
    (first-digit probabilities, KS) are deliberately unsupported.
    """

    _fields = ("laws",)

    def __init__(self, laws: tuple = ()):
        laws = tuple(laws)
        if not laws or not all(isinstance(l, DigitLaw) for l in laws):
            raise DomainError("ProductLaw needs a nonempty tuple of DigitLaw")
        self._set(laws=laws)

    @property
    def base(self) -> int:
        return self.laws[0].base

    def cdf(self, s_values) -> float:
        values = list(s_values)
        if len(values) != len(self.laws):
            raise DomainError(
                f"ProductLaw.cdf expects {len(self.laws)} components, got {len(values)}"
            )
        out = 1.0
        for law, s in zip(self.laws, values):
            out *= law.cdf(s)
        return out

    def density(self, s_values) -> float:
        values = list(s_values)
        if len(values) != len(self.laws):
            raise DomainError(
                f"ProductLaw.density expects {len(self.laws)} components, got {len(values)}"
            )
        out = 1.0
        for law, s in zip(self.laws, values):
            out *= law.density(s)
        return out

    def first_digit_probs(self):
        raise NotImplementedError(
            "first-digit probabilities are defined for scalar laws only"
        )


def windowed_power_cdf(base: int, k: float, m: int, s) -> float:
    """Significand CDF of density x^(-k) restricted to the window [1, B^m).

    Evaluates the literal ratio

        sum_{l=0}^{m-1} integral_{B^l}^{B^l s} x^(-k) dx
        -------------------------------------------------
               integral_1^{B^m} x^(-k) dx

    via geometric partial sums (k != 1) or exact logarithms (k = 1, where
    the value is log_B s for every m). For k != 1 the partial sums cancel
    analytically as well, so the value agrees with PowerLaw(base, k).cdf(s)
    for every m; keeping the m-dependent form makes that agreement a real
    floating-point consistency check rather than a tautology.
    """
    base = check_base(base)
    k = check_real(k, "k", 0, lo_open=True)
    m = check_int(m, "m", 1)
    arr, scalar = _check_sig(s, base)

    if k == 1.0:
        # Each decade contributes ln s; the window total is m ln B.
        out = (m * np.log(arr)) / (m * math.log(base))
    else:
        one_minus_k = 1.0 - k
        r = float(base) ** one_minus_k  # per-decade geometric ratio
        if r == 1.0:  # k so close to 1 that B^(1-k) rounds to 1
            out = np.log(arr) / math.log(base)
        else:
            try:
                r_m = r**m
            except OverflowError:
                r_m = math.inf
            geo = (1.0 - r_m) / (1.0 - r)  # sum_{l<m} r^l
            denom = (r_m - 1.0) / one_minus_k
            with np.errstate(over="ignore", invalid="ignore"):
                numer = (np.power(arr, one_minus_k) - 1.0) / one_minus_k * geo
                out = numer / denom
            # For k < 1 the window's mass grows as B^(m(1-k)), which can
            # leave the double range before B^m does.
            if not (math.isfinite(denom) and np.isfinite(out).all()):
                raise DomainError(
                    f"windowed_power_cdf: the mass of x^(-k) on [1, B^m) with m={m}, k={k}, "
                    f"base {base} is not a finite double"
                )
    return float(out) if scalar else out
