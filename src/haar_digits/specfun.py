"""Self-contained special functions and fixed-panel quadrature.

Everything here is implemented directly (series, continued fractions,
Stirling expansion, Gauss-Legendre panels) rather than delegated to libm or
scipy, so results are identical across platforms and the test suite can
cross-check against independent oracles.

Accuracy contracts:

* ``erf``/``erfc``: relative error <= 1e-12 for |x| <= 6; erf saturates to
  +-1 beyond. Both work elementwise on arrays.
* ``log_gamma``: relative error <= 1e-12 on [0.5, 1e6].
* ``gamma_half_ratio(n)`` = Gamma(n/2 + 1/2)/Gamma(n/2): relative error
  <= 1e-13 up to n = 1e8, with no overflow.
* ``betainc(a, b, x)``: for a = 1/2, absolute error ~1e-15 up to b = 5e3
  and below 1e-12 up to b = 5e7; up to ~max(a, b) ulp elsewhere. a and b
  are normal doubles, at most 1e8 (1e300 if the other one is 1/2).
* ``integrate``: 20-node Gauss-Legendre on each panel the caller lays out
  (no adaptivity), exact for polynomials of degree <= 39 per panel and
  accurate to rounding for integrands analytic well beyond each panel.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConvergenceError, DomainError, check_int, check_real

__all__ = [
    "erf",
    "erfc",
    "normal_cdf",
    "log_gamma",
    "gamma_half_ratio",
    "betainc",
    "integrate",
    "integrate_arcsine_weight",
]

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI
_LN_SQRT_PI = 0.5 * math.log(math.pi)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# erf saturation threshold: erfc(6) ~ 2.15e-17 < 2^-53.
_ERF_SATURATE = 6.0
_ERF_SERIES_CUT = 2.0
_EXP_UNDERFLOW = 745.0  # exp(-t) is 0 in double precision beyond this t
_TINY = 1e-300  # Lentz guard against a zero partial denominator
_MAX_ITER = 10_000  # per-lane iteration budget; never reached on valid input
# betainc's largest a or b beside one that is not 1/2: ln B(a, b) is then a
# difference of log-gammas, off by ~max(a, b) ulp, and at a = b the fraction
# needs ~sqrt(a) steps of the budget near the mean. Beside 1/2, the bound
# keeps the fraction's m (b - m) x terms finite within the budget.
_BETA_PARAM_MAX = 1e8
_BETA_HALF_MAX = 1e300
_DOUBLE_MIN = 2.0**-1022  # least normal double


def _flat(name: str, x):
    """x as a flat float array, with the shape to restore (() for a scalar)."""
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise DomainError(f"{name}: argument is NaN")
    return arr.reshape(-1), arr.shape


def _shaped(out: np.ndarray, shape):
    return float(out[0]) if shape == () else out.reshape(shape)


def erf(x):
    """Error function (2/sqrt(pi)) * integral_0^x exp(-t^2) dt, elementwise.

    Maclaurin series for |x| <= 2, Laplace continued fraction for the
    complement on 2 < |x| < 6, exact +-1 beyond (the true value differs
    from +-1 by less than one ulp there). Scalars return a float.
    """
    arr, shape = _flat("erf", x)
    if not np.isfinite(arr).all():
        raise DomainError("erf: argument must be finite")
    ax = np.abs(arr)
    out = np.ones_like(ax)
    small = ax <= _ERF_SERIES_CUT
    out[small] = _erf_series(ax[small])
    mid = ~small & (ax < _ERF_SATURATE)
    out[mid] = 1.0 - _erfc_cf(ax[mid])
    return _shaped(np.copysign(out, arr), shape)


def erfc(x):
    """Complementary error function 1 - erf(x), accurate in the tail.

    For |x| > 2 the continued fraction is used directly so the tiny tail is
    not lost to cancellation; for large x the value underflows gracefully
    to 0. Accepts arrays; scalars return a float.
    """
    arr, shape = _flat("erfc", x)
    ax = np.abs(arr)
    out = np.zeros_like(ax)
    small = ax <= _ERF_SERIES_CUT
    out[small] = 1.0 - _erf_series(ax[small])
    mid = ~small & (ax * ax <= _EXP_UNDERFLOW)
    out[mid] = _erfc_cf(ax[mid])
    return _shaped(np.where(arr < 0.0, 2.0 - out, out), shape)


def normal_cdf(z):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * erfc(-np.asarray(z, dtype=float) / math.sqrt(2.0))


def _per_lane(step, state, what: str) -> np.ndarray:
    """Iterate step(k, *state) for k = 1, 2, ... until every lane settles.

    step returns the new state arrays and a mask of the lanes that settled
    on this step. Those lanes leave the iteration, so each one stops at its
    own convergence; the result is the first state array as each lane left.
    """
    out = np.empty_like(state[0])
    idx = np.arange(out.size)
    for k in range(1, _MAX_ITER):
        state, done = step(k, *state)
        out[idx[done]] = state[0][done]
        keep = ~done
        idx = idx[keep]
        state = [arr[keep] for arr in state]
        if not idx.size:
            return out
    raise ConvergenceError(f"{what} failed to converge")


def _erf_series(x: np.ndarray) -> np.ndarray:
    # erf(x) = (2/sqrt(pi)) sum_{n>=0} (-1)^n x^(2n+1) / (n! (2n+1)), summed
    # until the increment falls below 1e-18 of the total (|x| <= 2: ~40 terms).
    def step(n, total, term, x2):
        term = term * (-x2 / n)
        inc = term / (2 * n + 1)
        total = total + inc
        return (total, term, x2), np.abs(inc) <= 1e-18 * np.abs(total)

    return _TWO_OVER_SQRT_PI * _per_lane(step, (x, x, x * x), "erf series")


def _erfc_cf(x: np.ndarray) -> np.ndarray:
    # Laplace continued fraction, modified Lentz evaluation:
    # erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    def step(i, f, c, d, x):
        d = 1.0 / _nonzero(x + 0.5 * i * d)
        c = _nonzero(x + 0.5 * i / c)
        delta = c * d
        return (f * delta, c, d, x), np.abs(delta - 1.0) < 1e-16

    f = _per_lane(step, (x, x, np.zeros_like(x), x), "erfc continued fraction")
    return np.exp(-x * x) / (_SQRT_PI * f)


def _nonzero(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _TINY, _TINY, v)


# Stirling series coefficients B_{2j} / (2j (2j-1)).
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)
_STIRLING_MIN_X = 10.0


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Stirling's series with Bernoulli terms through B_16 for x >= 10; smaller
    arguments are shifted up with log_gamma(x) = log_gamma(x+m) - log(x...(x+m-1)).
    """
    x = check_real(x, "x", 0, lo_open=True)
    shift = 0.0
    while x < _STIRLING_MIN_X:
        shift += math.log(x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    p = inv
    for coeff in _STIRLING:
        series += coeff * p
        p *= inv2
    return (x - 0.5) * math.log(x) - x + _LN_SQRT_2PI + series - shift


def _log_gamma_half_gap(x: float) -> float:
    """log Gamma(x + 1/2) - log Gamma(x) for x > 0.

    From x = 10 on, the difference of the two Stirling series is summed
    directly, ln x / 2 + sum_j (2^(1-2j) - 2) B_2j / (2j (2j-1)) x^(1-2j),
    so the huge log-gamma values never cancel.
    """
    if x < _STIRLING_MIN_X:
        return log_gamma(x + 0.5) - log_gamma(x)
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    p = inv
    for j, coeff in enumerate(_STIRLING, start=1):
        series += (2.0 ** (1 - 2 * j) - 2.0) * coeff * p
        p *= inv2
    return 0.5 * math.log(x) + series


def gamma_half_ratio(n: int) -> float:
    """Gamma(n/2 + 1/2) / Gamma(n/2) for integer n >= 1.

    Computed from the log-gamma gap, so there is neither overflow nor
    cancellation even for n ~ 1e8; the value grows like sqrt(n/2).
    """
    return math.exp(_log_gamma_half_gap(check_int(n, "n", 1) / 2.0))


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b); with a parameter equal to 1/2 it is ln sqrt(pi) minus the
    half gap of the other one."""
    if a == 0.5 or b == 0.5:
        return _LN_SQRT_PI - _log_gamma_half_gap(b if a == 0.5 else a)
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def betainc(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1].

    Elementwise in x (scalars return a float). Each value is the front
    factor x^a (1-x)^b / (a B(a, b)) times the modified-Lentz continued
    fraction, evaluated directly below x = (a+1)/(a+b+2) and through the
    symmetry I_x(a, b) = 1 - I_(1-x)(b, a) above it, where the mirrored
    fraction converges fast (Numerical Recipes 6.4; DiDonato & Morris, ACM
    TOMS 18, 1992). Lanes whose front factor underflows to 0 are exactly 0
    or 1, and a value rounded past 0 or 1 is clipped to it.

    a and b must be normal doubles (>= 2^-1022: the front factor carries a
    factor a or b, which a subnormal one would round away) and at most 1e8,
    or 1e300 if the other one is 1/2. For a = 1/2, the case the sphere laws
    use, the absolute error is about 1e-15 up to b = 5e3 and below 1e-12 up
    to b = 5e7; elsewhere expect up to about max(a, b) ulp.
    """
    tail, mirrored, shape = _betainc_tail(a, b, x)
    tail[mirrored] = 1.0 - tail[mirrored]
    return _shaped(np.clip(tail, 0.0, 1.0, out=tail), shape)


def _betainc_tail(a: float, b: float, x):
    """I_x(a, b), or 1 - I_x on the mirrored lanes, as the continued fractions
    give them (flat, so a tail near 0 is not cancelled), the mirrored mask, x's shape."""
    # b is not checked yet: an array b must reach its own DomainError.
    b_half = isinstance(b, numbers.Real) and b == 0.5
    a = check_real(a, "a", _DOUBLE_MIN, _BETA_HALF_MAX if b_half else _BETA_PARAM_MAX)
    b = check_real(b, "b", _DOUBLE_MIN, _BETA_HALF_MAX if a == 0.5 else _BETA_PARAM_MAX)
    arr, shape = _flat("betainc", x)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise DomainError("betainc: x must lie in [0, 1]")
    # A huge a or b times a log overflows to -inf, and the front factor is 0.
    with np.errstate(divide="ignore", over="ignore"):
        front = np.exp(a * np.log(arr) + b * np.log1p(-arr) - _log_beta(a, b))
    # Past the mean the direct fraction can settle on a wrong value (I_x - 1
    # at a = b = 1e6, two deviations up), so those lanes mirror. Only for
    # a = 1/2 <= b, where ln B is the exact half gap, do the lanes with
    # front >= b^-1/2 stay direct: they lose about 1/front ulp there, while
    # the mirrored fraction runs on the rounded 1 - x, about b ulp where x is
    # tiny; at b = 5e7 the worst error is 1e-12 against 5e-10.
    swap = (arr >= (a + 1.0) / (a + b + 2.0)) & (
        (a != 0.5) | (a > b) | (front * math.sqrt(b) < 1.0)
    )
    tail = np.zeros_like(arr)
    direct = ~swap & (front > 0.0)
    tail[direct] = front[direct] * _beta_cf(a, b, arr[direct]) / a
    mirror = swap & (front > 0.0)
    tail[mirror] = front[mirror] * _beta_cf(b, a, 1.0 - arr[mirror]) / b
    return tail, swap, shape


def _beta_cf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    # Continued fraction for I_x(a, b) (Numerical Recipes 6.4) by the modified
    # Lentz method; one step takes the even and the odd partial numerator.
    def step(m, h, c, d, x):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / _nonzero(1.0 + num * d)
            c = _nonzero(1.0 + num / c)
            delta = c * d
            h = h * delta
        return (h, c, d, x), np.abs(delta - 1.0) < 1e-15

    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    return _per_lane(step, (d, np.ones_like(x), d, x), "betainc continued fraction")


# The 20-node Gauss-Legendre rule on [-1, 1], as np.polynomial.legendre.leggauss(20)
# gives it bit for bit (a test checks): the positive nodes and their weights,
# mirrored. Frozen, so that importing the package does not import
# numpy.polynomial.
_GL_HALF = np.array([
    [0.07652652113349734, 0.15275338713072628],
    [0.22778585114164507, 0.14917298647260424],
    [0.37370608871541955, 0.1420961093183824],
    [0.5108670019508271, 0.1316886384491769],
    [0.636053680726515, 0.1181945319615186],
    [0.7463319064601508, 0.1019301198172407],
    [0.8391169718222188, 0.08327674157670471],
    [0.912234428251326, 0.06267204833410879],
    [0.9639719272779138, 0.040601429800386446],
    [0.993128599185095, 0.017614007139150893],
])
_GL_NODES = np.concatenate([-_GL_HALF[::-1, 0], _GL_HALF[:, 0]])
_GL_WEIGHTS = np.concatenate([_GL_HALF[::-1, 1], _GL_HALF[:, 1]])


def integrate(f, edges):
    """Sum of 20-node Gauss-Legendre rules over the panels between edges.

    ``edges`` lists ascending panel edges along its last axis; leading axes
    index independent integrals, and the result has their shape (a float
    for 1-D ``edges``). A panel of zero width adds nothing. ``f`` is called
    once, on every node: an array shaped like ``edges`` whose last axis holds
    the 20 nodes of each panel in turn. It must return values of that shape.
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges, axis=-1)[..., None]
    if not (np.isfinite(edges).all() and (half >= 0.0).all()):
        raise DomainError("integrate: edges must be finite and ascending")
    x = edges[..., :-1, None] + half * (1.0 + _GL_NODES)
    fx = np.asarray(f(x.reshape(*edges.shape[:-1], -1)), dtype=float).reshape(x.shape)
    if not np.isfinite(fx).all():
        raise DomainError("integrate: integrand not finite on the panels")
    out = (half * _GL_WEIGHTS * fx).sum(axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def integrate_arcsine_weight(g, edges):
    """Integral of g(x) / sqrt(1 - x^2) over the panels between edges in [-1, 1].

    Each panel is integrated in t = asin(x), which removes the inverse
    square-root endpoint singularity exactly: the integrand becomes g(sin t).
    ``edges`` and ``g`` follow ``integrate``.
    """
    edges = np.asarray(edges, dtype=float)
    if not ((edges >= -1.0) & (edges <= 1.0)).all():
        raise DomainError("integrate_arcsine_weight: edges must lie in [-1, 1]")
    return integrate(lambda t: g(np.sin(t)), np.arcsin(edges))
