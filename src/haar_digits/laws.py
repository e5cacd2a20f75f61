"""Analytic leading-digit (significand) laws on [1, B).

Each law exposes a CDF and density in the significand variable s in [1, B]
plus the induced first-digit probability vector (digits 1..B-1). Laws accept
scalar or numpy-array s and validate the domain.

Variants here are the closed-form scalar families; the sphere-coordinate
families live in haar_digits.sphere and subclass DigitLaw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
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


class DigitLaw:
    """Common behaviour for significand laws; subclasses set ``base``.

    ``cdf`` is pointwise (a point's value does not depend on the other points
    of the call) and nondecreasing to within 1e-9; the KS sweep relies on both.
    """

    base: int

    def _check_sig(self, s):
        # C order: NumPy's vectorized log gives a point the same bits in any layout.
        arr = np.asarray(s, dtype=float, order="C")
        if not ((arr >= 1.0) & (arr <= self.base)).all():  # also rejects NaN
            raise DomainError(
                f"significand must lie in [1, {self.base}], got range "
                f"[{arr.min()}, {arr.max()}]"
            )
        return arr, np.isscalar(s) or np.ndim(s) == 0

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


@dataclass(frozen=True)
class Benford(DigitLaw):
    """Logarithmic significand law: CDF log_B(s), density 1/(s ln B)."""

    base: int = 10

    def __post_init__(self):
        object.__setattr__(self, "base", check_base(self.base))

    def cdf(self, s):
        arr, scalar = self._check_sig(s)
        return self._ret(np.log(arr) / math.log(self.base), scalar)

    def density(self, s):
        arr, scalar = self._check_sig(s)
        return self._ret(1.0 / (arr * math.log(self.base)), scalar)


@dataclass(frozen=True)
class PowerLaw(DigitLaw):
    """Significand law of a density proportional to x^(-k) across decades.

    Density on [1, B): c * s^(-k) with c = (k-1) B^(k-1) / (B^(k-1) - 1);
    CDF (1 - s^(1-k)) / (1 - B^(1-k)). k = 1 is exactly the Benford law and
    the formulas approach it continuously (expm1-based evaluation keeps
    k near 1 stable).
    """

    base: int = 10
    k: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "base", check_base(self.base))
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise DomainError(f"PowerLaw exponent k must be > 0, got {self.k}")

    def cdf(self, s):
        arr, scalar = self._check_sig(s)
        if self.k == 1.0:
            return self._ret(np.log(arr) / math.log(self.base), scalar)
        one_minus_k = 1.0 - self.k
        # (1 - s^(1-k)) / (1 - B^(1-k)) = expm1((1-k) ln s) / expm1((1-k) ln B)
        num = np.expm1(one_minus_k * np.log(arr))
        den = math.expm1(one_minus_k * math.log(self.base))
        return self._ret(num / den, scalar)

    def density(self, s):
        arr, scalar = self._check_sig(s)
        if self.k == 1.0:
            return self._ret(1.0 / (arr * math.log(self.base)), scalar)
        # c = (k-1) B^(k-1) / (B^(k-1) - 1) = (k-1) / -expm1((1-k) ln B)
        c = (self.k - 1.0) / -math.expm1((1.0 - self.k) * math.log(self.base))
        return self._ret(c * np.power(arr, -self.k), scalar)


@dataclass(frozen=True)
class UniformSignificand(DigitLaw):
    """Flat significand law: CDF (s-1)/(B-1), the anti-Benford control."""

    base: int = 10

    def __post_init__(self):
        object.__setattr__(self, "base", check_base(self.base))

    def cdf(self, s):
        arr, scalar = self._check_sig(s)
        return self._ret((arr - 1.0) / (self.base - 1.0), scalar)

    def density(self, s):
        arr, scalar = self._check_sig(s)
        out = np.full_like(arr, 1.0 / (self.base - 1.0))
        return self._ret(out, scalar)


@dataclass(frozen=True)
class FlatWindowSignificand(DigitLaw):
    """Significand law of a coordinate uniform on [-eps, eps].

    With eps = t B^e, t in [1, B): the top partial decade [B^e, t B^e)
    holds (t - 1)/t of the mass with a flat significand on [1, t), and the
    whole decades below it hold 1/t with a flat significand on [1, B), so
    CDF [min(s, t) - 1 + (s - 1)/(B - 1)] / t. t = 1 (eps a power of B)
    is UniformSignificand.
    """

    base: int = 10
    eps: float = 1.0
    t: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "base", check_base(self.base))
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise DomainError(f"FlatWindowSignificand: eps must be > 0, got {self.eps}")
        object.__setattr__(self, "t", significand(self.eps, self.base).significand)

    def cdf(self, s):
        arr, scalar = self._check_sig(s)
        out = np.minimum(arr, self.t) - 1.0 + (arr - 1.0) / (self.base - 1.0)
        return self._ret(out / self.t, scalar)

    def density(self, s):
        arr, scalar = self._check_sig(s)
        out = np.where(arr < self.t, 1.0, 0.0) + 1.0 / (self.base - 1.0)
        return self._ret(out / self.t, scalar)


@dataclass(frozen=True)
class ProductLaw:
    """Joint law of independent components, one DigitLaw per coordinate.

    cdf/density take one significand per component. Scalar-law operations
    (first-digit probabilities, KS) are deliberately unsupported.
    """

    laws: tuple = field(default_factory=tuple)

    def __post_init__(self):
        laws = tuple(self.laws)
        if not laws or not all(isinstance(l, DigitLaw) for l in laws):
            raise DomainError("ProductLaw needs a nonempty tuple of DigitLaw")
        object.__setattr__(self, "laws", laws)

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
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"windowed_power_cdf: k must be > 0, got {k}")
    if int(m) != m or m < 1:
        raise DomainError(f"windowed_power_cdf: m must be a positive integer, got {m}")
    m = int(m)
    arr = np.asarray(s, dtype=float)
    if not ((arr >= 1.0) & (arr <= base)).all():  # also rejects NaN
        raise DomainError(f"windowed_power_cdf: s must lie in [1, {base}]")
    scalar = np.isscalar(s) or np.ndim(s) == 0

    if k == 1.0:
        # Each decade contributes ln s; the window total is m ln B.
        out = (m * np.log(arr)) / (m * math.log(base))
    else:
        one_minus_k = 1.0 - k
        r = float(base) ** one_minus_k  # per-decade geometric ratio
        if r == 1.0:  # k so close to 1 that B^(1-k) rounds to 1
            out = np.log(arr) / math.log(base)
        else:
            geo = (1.0 - r**m) / (1.0 - r)  # sum_{l<m} r^l
            numer = (np.power(arr, one_minus_k) - 1.0) / one_minus_k * geo
            denom = (r**m - 1.0) / one_minus_k
            out = numer / denom
    return float(out) if scalar else out
