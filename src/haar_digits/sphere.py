"""Significand laws for coordinates of uniform points on the sphere S^n.

For a uniform point on the unit n-sphere in R^(n+1) the first coordinate
x_1 has density c_n (1-x^2)^(n/2-1) on [-1, 1] with c_n =
Gamma(n/2+1/2) / (sqrt(pi) Gamma(n/2)), and x_1^2 ~ Beta(1/2, n/2). The
band [B^-i, s B^-i] of |x_1| therefore has probability
I_{(s B^-i)^2}(1/2, n/2) - I_{B^-2i}(1/2, n/2), and summing the bands gives
the exact significand CDF. Replacing the band probabilities with
error-function differences gives the large-n asymptotic form; extending
that sum over all integer scales gives the limiting family

    F_n(x) = sum_{i in Z} [erf(sqrt(n/2) x / B^i) - erf(sqrt(n/2) / B^i)],

which is periodic in the sense F_n = F_{n B^2}, so the large-n behaviour
cycles through B^2 - 1 distinct limit laws instead of converging.

Each law evaluates its CDF and density as one array expression over the
scales that carry its mass, in fixed-size blocks of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .laws import DigitLaw
from .significand import check_base
from .specfun import betainc, erf, gamma_half_ratio, integrate_arcsine_weight

__all__ = [
    "sphere_band_prob",
    "sphere_sig_cdf_exact",
    "sphere_sig_cdf_erf",
    "sphere_limit_cdf",
    "sphere_joint_band_prob",
    "sphere_joint_sig_approx",
    "SphereExact",
    "SphereErf",
    "SphereLimit",
]

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI
# erf(6) rounds to 1: a band whose edges both lie beyond 6 / sqrt(n/2) is empty.
_SATURATE = 6.0
# Points per evaluation block; bounds the (points x scales) temporaries.
_BLOCK = 1 << 12
# Joint band boxes per quadrature call; bounds the nodes each level holds.
_JOINT_COLUMNS = 64
# A band spans at most ln(1e18) = 41 e-folds of its weight; 20-node
# Gauss-Legendre integrates exp(-41 t) on one panel to 7e-14 relative.
_WEIGHT_CUT = 1e-18


def _check_n(n: int) -> int:
    if isinstance(n, bool) or int(n) != n or n < 1:
        raise DomainError(f"sphere dimension n must be a positive integer, got {n!r}")
    return int(n)


def _band_coeff(n: int) -> float:
    """c_n = Gamma(n/2+1/2) / (sqrt(pi) Gamma(n/2))."""
    return gamma_half_ratio(n) / _SQRT_PI


def _scales(n: int, base: int, slope: float, tail_tol: float, first) -> np.ndarray:
    """The scales B^-i (integer i >= first, if given) that carry a band sum.

    The sum is anchored where the mass lives, sqrt(n/2) B^-i ~ 1. Below the
    anchor, scales with sqrt(n/2) B^-i >= 6 put both band edges in the
    saturated tail, so their terms vanish. Above it each term is at most
    slope * (s-1) * B^-i, so the omitted tail is under slope * B^-i and the
    sum stops once that is below tail_tol / B.
    """
    log_b = math.log(base)
    lo = math.floor(math.log(math.sqrt(0.5 * n) / _SATURATE) / log_b) + 1
    if first is not None:
        lo = max(lo, first)
    hi = math.ceil(math.log(slope * base / tail_tol) / log_b)
    return float(base) ** -np.arange(lo, hi + 1, dtype=float)


def sphere_band_prob(n: int, a: float, b: float) -> float:
    """P(first coordinate of a uniform S^n point lies in (a, b)).

    P(0 <= x_1 <= t) = I_{t^2}(1/2, n/2) / 2 for t >= 0, and x_1 is
    symmetric about 0.
    """
    n = _check_n(n)
    a = float(a)
    b = float(b)
    if not (-1.0 <= a <= b <= 1.0):
        raise DomainError(f"sphere_band_prob: need -1 <= a <= b <= 1, got ({a}, {b})")
    half_a, half_b = 0.5 * betainc(0.5, 0.5 * n, np.array([a * a, b * b]))
    return math.copysign(half_b, b) - math.copysign(half_a, a)


def sphere_sig_cdf_exact(n: int, base: int, s, tail_tol: float = 1e-12) -> float:
    """Exact significand CDF of the first S^n coordinate at s in [1, B].

    P(S_B(x_1) <= s) = sum_{i>=1} [I_{min(1, s B^-i)^2} - I_{B^-2i}](1/2, n/2);
    see SphereExact.
    """
    return SphereExact(base=base, n=n, tail_tol=tail_tol).cdf(float(s))


def sphere_sig_cdf_erf(n: int, base: int, s, tail_tol: float = 1e-12) -> float:
    """Large-n error-function approximation to the significand CDF.

    Replaces each band integral with erf(sqrt(n/2) s/B^i) - erf(sqrt(n/2)/B^i);
    the approximation tightens like O(1/n) as the dimension grows. Needs
    n >= 2; see SphereErf.
    """
    return SphereErf(base=base, n=n, tail_tol=tail_tol).cdf(float(s))


def sphere_limit_cdf(n: int, base: int, x, tail_tol: float = 1e-12) -> float:
    """Two-sided limit family F_n(x) on [1, B]; satisfies F_n = F_{n B^2}.

    F_n(1) = 0 and F_n(B) = 1 hold exactly (the two-sided sum telescopes at
    x = B); see SphereLimit.
    """
    return SphereLimit(base=base, n=n, tail_tol=tail_tol).cdf(float(x))


def sphere_joint_band_prob(n: int, bounds) -> float:
    """P(|x_j| in (a_j, b_j) for j = 1..k) for the first k <= n coordinates of S^n.

    Given x_1 = sin t, the coordinates x_j / cos t (j >= 2) are the first
    k-1 coordinates of S^(n-1), so one recursion serves every k:

        P_n(bounds) = 2 c_n int_{asin a_1}^{asin b_1} cos^(n-1) t P_(n-1)(bounds[1:] / cos t) dt,

    with the closed-form band probability innermost and fixed Gauss-Legendre
    panels (_joint_edges) at each outer level. The absolute error is about
    1e-15 up to n = 1e4; beyond, it is bounded by the incomplete beta's (1e-12).
    """
    n = _check_n(n)
    pairs = [(float(a), float(b)) for a, b in bounds]
    if not pairs:
        raise DomainError("joint bounds must be nonempty")
    for a, b in pairs:
        if not (0.0 <= a < b):
            raise DomainError(f"joint bounds need 0 <= a < b per coordinate, got ({a}, {b})")
    if sum(b * b for _, b in pairs) >= 1.0:
        raise DomainError("joint integration region must lie strictly inside the unit ball")
    if len(pairs) > n:
        raise DomainError(f"need k <= n, got k={len(pairs)} coordinates on S^{n}")
    return float(_joint(n, np.array(pairs).T[:, :, None])[0])


def _joint(n: int, box: np.ndarray) -> np.ndarray:
    """Joint band probabilities on S^n of boxes given as (lower, upper) x k x m bounds."""
    k = box.shape[1]
    if k == 1:
        lo, hi = betainc(0.5, 0.5 * n, np.square(box[:, 0]))
        return hi - lo
    out = np.empty(box.shape[2])
    for start in range(0, len(out), _JOINT_COLUMNS):
        cols = slice(start, start + _JOINT_COLUMNS)

        def g(x):
            inner = np.minimum(box[:, 1:, cols, None] / np.sqrt(1.0 - x * x), 1.0)
            weight = np.exp(0.5 * (n - 1) * np.log1p(-x * x))
            return weight * _joint(n - 1, inner.reshape(2, k - 1, -1)).reshape(x.shape)

        lower, upper = box[:, 0, cols]
        edges = _joint_edges(n, lower, upper, np.square(box[1, 1:, cols]).sum(axis=0))
        out[cols] = integrate_arcsine_weight(g, np.sin(edges))
    return 2.0 * _band_coeff(n) * out


def _joint_edges(n: int, a: np.ndarray, b: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Panel edges in t = asin x over the band (a, b) of each column, shape (m, p+1).

    The band is cut where the weight cos^(n-1) t falls below _WEIGHT_CUT of
    its lower-edge value, then split into even panels at most 2/sqrt(n)
    (the weight's peak) wide. The last panel is halved toward the end until
    it is at most twice the gap to the corner t* = acos(sqrt(rest)), where
    the other coordinates' scaled box touches the sphere and the integrand
    is singular. Columns share the largest panel count, as more even panels.
    """
    lo = np.arcsin(a)
    end = np.minimum(np.arcsin(b), np.arccos(np.cos(lo) * _WEIGHT_CUT ** (1.0 / (n - 1))))
    span = np.maximum(end - lo, 1e-300)  # asin can map an ulp-wide band to one point
    even = np.ceil(0.5 * math.sqrt(n) * span)
    # Floored so that at most ~60 halvings, below an ulp of the band, are made.
    gap = np.maximum(np.arccos(np.sqrt(np.minimum(rest, 1.0))) - end, span * 2.0**-60)
    halvings = np.maximum(0.0, np.ceil(np.log2(span / even / (2.0 * gap))))
    panels = int((even + halvings).max())
    even = (panels - halvings)[:, None]
    j = np.arange(panels)
    # Distance of edge j from the end: even panels, then halving widths.
    depth = np.where(j < even, even - j, 0.5 ** (j - even + 1)) * (span[:, None] / even)
    return np.append(end[:, None] - depth, end[:, None], axis=1)


def sphere_joint_sig_approx(n: int, base: int, bounds, tail_tol: float = 1e-12) -> float:
    """Asymptotic joint significand probability: product of erf band sums.

    P(S_B(x_j) in [a_j, b_j) for all j) ~ prod_j sum_{i>=1}
    [erf(sqrt(n/2) b_j/B^i) - erf(sqrt(n/2) a_j/B^i)]; the coordinates
    decouple in the large-n limit, and each factor is a SphereErf mass.
    """
    law = SphereErf(base=base, n=n, tail_tol=tail_tol)
    out = 1.0
    for a, b in bounds:
        a = float(a)
        b = float(b)
        if not (1.0 <= a < b <= law.base):
            raise DomainError(
                f"joint significand bounds need 1 <= a < b <= {law.base}, got ({a}, {b})"
            )
        out *= law.cdf(b) - law.cdf(a)
    return out


# --- DigitLaw wrappers ------------------------------------------------------


class _SphereLawBase(DigitLaw):
    """Blocked array evaluation shared by the sphere laws.

    A subclass gives the CDF and density of a column of significands as a
    sum over its scales; cdf and density feed it _BLOCK points at a time,
    and a scalar is the one-point case.
    """

    def _check_fields(self):
        object.__setattr__(self, "base", check_base(self.base))
        object.__setattr__(self, "n", _check_n(self.n))
        if not (0.0 < self.tail_tol < 1e-3):
            raise DomainError(f"tail_tol must be in (0, 1e-3), got {self.tail_tol}")

    def _blocked(self, block_fn, s):
        arr, scalar = self._check_sig(s)
        flat = arr.reshape(-1)
        out = np.empty(flat.size)
        for start in range(0, flat.size, _BLOCK):
            out[start : start + _BLOCK] = block_fn(flat[start : start + _BLOCK, None])
        return self._ret(out.reshape(arr.shape), scalar)

    def cdf(self, s):
        return self._blocked(lambda t: np.clip(self._cdf_block(t), 0.0, 1.0), s)

    def density(self, s):
        return self._blocked(self._density_block, s)


@dataclass(frozen=True)
class SphereExact(_SphereLawBase):
    """Exact first-coordinate significand law on S^n (incomplete-beta route).

    cdf(s) = sum_{i>=1} [I_{min(1, s B^-i)^2} - I_{B^-2i}](1/2, n/2); the
    s-independent lower terms are computed once per law.
    """

    base: int = 10
    n: int = 2
    tail_tol: float = 1e-12

    def __post_init__(self):
        self._check_fields()
        # A band's mass is at most 2 c_n (s-1) B^-i.
        scales = _scales(self.n, self.base, 2.0 * _band_coeff(self.n), self.tail_tol, 1)
        object.__setattr__(self, "_scales", scales)
        object.__setattr__(self, "_lower", betainc(0.5, 0.5 * self.n, scales * scales))

    def _cdf_block(self, s):
        u = np.minimum(1.0, s * self._scales)
        return (betainc(0.5, 0.5 * self.n, u * u) - self._lower).sum(axis=1)

    def _density_block(self, s):
        x = s * self._scales
        with np.errstate(divide="ignore"):
            weight = np.power(np.clip(1.0 - x * x, 0.0, None), 0.5 * self.n - 1.0)
        return 2.0 * _band_coeff(self.n) * (weight * self._scales).sum(axis=1)


class _ErfBandLaw(_SphereLawBase):
    """Sum of erf(sqrt(n/2) s B^-i) - erf(sqrt(n/2) B^-i) over the scales i >= _first."""

    _first = None

    def __post_init__(self):
        self._check_fields()
        r = math.sqrt(0.5 * self.n)
        # A band's mass is at most (2/sqrt(pi)) r (s-1) B^-i.
        scales = _scales(self.n, self.base, _TWO_OVER_SQRT_PI * r, self.tail_tol, self._first)
        object.__setattr__(self, "_r", r)
        object.__setattr__(self, "_scales", scales)
        object.__setattr__(self, "_lower", erf(r * scales))

    def _cdf_block(self, s):
        return (erf(self._r * s * self._scales) - self._lower).sum(axis=1)

    def _density_block(self, s):
        z = self._r * s * self._scales
        return _TWO_OVER_SQRT_PI * self._r * (self._scales * np.exp(-z * z)).sum(axis=1)


@dataclass(frozen=True)
class SphereErf(_ErfBandLaw):
    """Error-function asymptotic form of the S^n significand law (n >= 2).

    Not normalized: the bands telescope, so cdf(B) and the sum of
    first_digit_probs() equal erf(sqrt(n/2)) (0.9973 at n = 9), the mass
    the Gaussian approximation puts on |x| <= 1.
    """

    base: int = 10
    n: int = 2
    tail_tol: float = 1e-12
    _first = 1

    def __post_init__(self):
        if _check_n(self.n) < 2:
            raise DomainError("SphereErf requires n >= 2")
        super().__post_init__()


@dataclass(frozen=True)
class SphereLimit(_ErfBandLaw):
    """Periodic limit family F_n, summed over all integer scales; identical for n and n B^2."""

    base: int = 10
    n: int = 1
    tail_tol: float = 1e-12
