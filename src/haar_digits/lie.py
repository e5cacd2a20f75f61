"""Haar-modulus identities on triangular groups and cone volumes for SL_2.

Two families of checks live here:

* Adjoint determinants. For b = u d (u unit upper-triangular, d diagonal)
  the adjoint action of b^(-1) preserves the strictly upper algebra and,
  after projecting back, acts triangularly on the strictly lower algebra.
  Both determinants depend only on d, and their product is exactly 1 --
  the cancellation that makes the windowed triangular significand laws
  consistent between left and right Haar measure. Each routine builds the
  action matrix explicitly in a basis, takes its determinant numerically,
  and cross-checks the closed form; the two routes are kept separate on
  purpose.

* Cone volumes. The region of 2x2 matrices with determinant in (0, 1]
  whose normalized part g / sqrt(det g) lies in the window
  {a in [1, x], |b| <= eps, |c| <= eps} of SL_2 has Lebesgue volume
  exactly 2 eps^2 ln x, so the window edge s = w / sqrt(det g) of a uniform
  point of the cone is exactly Benford. A rejection Monte Carlo companion
  estimates the volume from the membership test alone, without using the
  formula, and returns the edges of the points it accepted.
"""

from __future__ import annotations

import math

import numpy as np

from ._frozen import Frozen
from .errors import ConsistencyError, DomainError, check_int, check_real
from .rng import RngStream

__all__ = [
    "ConeProblem",
    "MCVolume",
    "MC_SIGMAS",
    "adjoint_det_on_u",
    "adjoint_det_on_l",
    "hyperbolic_cone_area",
    "hyperbolic_cone_area_mc",
    "sl2_cone_membership",
    "sl2_cone_volume",
    "sl2_cone_volume_mc",
]

_REL_TOL = 1e-10
_TRI_TOL = 1e-12
_MC_BATCH = 2**16  # rejection Monte Carlo points drawn per batch
MC_SIGMAS = 5.0  # an estimate agrees with a value fewer standard errors away


class ConeProblem(Frozen):
    """SL_2 window cone: a in [1, x], off-diagonal coordinates in [-eps, eps].

    eps^2 must be a normal double (eps >= 2^-511): below that the volume
    2 eps^2 ln x is subnormal or 0, and its Monte Carlo estimates and their
    error bars lose their digits.
    """

    _fields = ("x", "eps")

    def __init__(self, x: float, eps: float = 0.1):
        self._set(x=check_real(x, "x", 1), eps=check_real(eps, "eps", 2.0**-511, 1))


class MCVolume(Frozen):
    """Rejection Monte Carlo volume estimate: `accepted` of `trials` points
    of a box of volume `box_volume` fell in the region. The estimate and its
    binomial standard error are read from those three."""

    _fields = ("accepted", "trials", "box_volume")

    def __init__(self, accepted: int, trials: int, box_volume: float):
        self._set(accepted=accepted, trials=trials, box_volume=box_volume)

    @property
    def estimate(self) -> float:
        """box_volume * accepted / trials."""
        return self.box_volume * (self.accepted / self.trials)

    @property
    def stderr(self) -> float:
        """The binomial standard error of the estimate."""
        p = self.accepted / self.trials
        return self.box_volume * math.sqrt(max(p * (1.0 - p), 0.0) / self.trials)

    def sigma_gap(self, exact: float) -> float:
        """|estimate - exact| in standard errors; with a zero error bar (every
        trial rejected, or every one accepted) a nonzero gap is infinite."""
        gap = abs(self.estimate - check_real(exact, "exact"))
        return gap / self.stderr if self.stderr > 0.0 else (math.inf if gap else 0.0)

    def agrees(self, exact: float) -> bool:
        """The Monte Carlo verdict: fewer than MC_SIGMAS standard errors from exact."""
        return self.sigma_gap(exact) < MC_SIGMAS

    def subregion(self, accepted: int) -> MCVolume:
        """The estimate, from the same trials and box, of a subregion that
        `accepted` of the accepted points fall in."""
        accepted = check_int(accepted, "accepted", 0, self.accepted)
        return MCVolume(accepted, self.trials, self.box_volume)


def _check_stack(d, u):
    """Validated d as (m, n) and u as (m, n, n), plus whether one pair was given.

    A single d or u is shared by every pair of a stack given for the other.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim not in (1, 2) or d.shape[-1] < 2:
        raise DomainError(f"need a vector of >= 2 diagonal entries, got shape {d.shape}")
    if not np.all(np.isfinite(d)) or np.any(d == 0.0):
        raise DomainError("diagonal entries must be finite and nonzero")
    n = d.shape[-1]
    u = np.eye(n) if u is None else np.asarray(u, dtype=float)
    if u.ndim not in (2, 3) or u.shape[-2:] != (n, n):
        raise DomainError(f"u must be {n}x{n}, got {u.shape}")
    if d.ndim == 2 and u.ndim == 3 and len(d) != len(u):
        raise DomainError(f"u and d stacks differ in length: {len(u)} vs {len(d)}")
    if not np.all(np.isfinite(u)):
        raise DomainError("u must have finite entries")
    if np.tril(u, k=-1).any():
        raise DomainError("u must be upper triangular")
    if not np.all(np.diagonal(u, axis1=-2, axis2=-1) == 1.0):
        raise DomainError("u must have unit diagonal")
    m = len(d) if d.ndim == 2 else len(u) if u.ndim == 3 else 1
    single = d.ndim == 1 and u.ndim == 2
    return np.broadcast_to(d, (m, n)), np.broadcast_to(u, (m, n, n)), single


def _basis_by_distance(n: int, lower: bool):
    """Row and column indices of the strictly triangular basis positions,
    ordered by distance from the diagonal."""
    near = np.concatenate([np.arange(n - delta) for delta in range(1, n)])
    far = np.concatenate([np.arange(delta, n) for delta in range(1, n)])
    return (far, near) if lower else (near, far)


def _raise_first(bad, describe) -> None:
    """ConsistencyError naming the first draw k where bad[k] holds."""
    if bad.any():
        k = int(np.argmax(bad))
        raise ConsistencyError(f"draw {k}: {describe(k)}")


def _adjoint_det(d, u, lower: bool):
    """det of Ad(b^(-1)) on the strictly upper algebra, or of its projection
    on the strictly lower one, for each pair of a stack; b = u diag(d).

    Since b^(-1) E_ij b = (b^(-1) e_i)(e_j^T b), entry (i', j') of the
    conjugated basis element E_ij is b^(-1)[i', i] * b[j, j']; the action
    matrix is that tensor read at the basis positions.
    """
    d, u, single = _check_stack(d, u)
    rows, cols = _basis_by_distance(d.shape[1], lower)
    b = u * d[:, None, :]  # u @ diag(d)
    # conj[k, i', j', c]: entry (i', j') of b^(-1) E b for basis element c.
    conj = np.linalg.inv(b)[:, :, None, rows] * b[:, cols, :].transpose(0, 2, 1)[:, None]
    scale = np.abs(conj).max(axis=(1, 2, 3), initial=1.0)
    action = conj[:, rows, cols, :]
    if lower:
        below = np.abs(np.tril(action, k=-1)).max(axis=(1, 2), initial=0.0)
        _raise_first(
            below > _TRI_TOL * scale,
            lambda k: "projected adjoint action is not triangular in the "
            f"distance-ordered basis (max below-diagonal {below[k]:.3e})",
        )
    else:
        outside = ~np.triu(np.ones(b.shape[1:], dtype=bool), k=1)
        residue = np.abs(conj[:, outside]).max(axis=(1, 2), initial=0.0)
        _raise_first(
            residue > _TRI_TOL * scale,
            lambda k: f"conjugation left the strictly upper algebra (residue {residue[k]:.3e})",
        )
    numeric = np.linalg.det(action)
    closed = np.prod(d[:, cols] / d[:, rows], axis=1)
    _raise_first(
        np.abs(numeric - closed) > _REL_TOL * np.maximum(np.abs(closed), 1e-300),
        lambda k: f"adjoint determinant on {'lower' if lower else 'upper'} algebra: "
        f"matrix route {float(numeric[k])!r} vs closed form {float(closed[k])!r}",
    )
    return float(numeric[0]) if single else numeric


def adjoint_det_on_u(d, u=None):
    """det of Ad(b^(-1)) on the strictly upper algebra, b = u diag(d).

    The algebra is genuinely invariant (the conjugated basis elements stay
    strictly upper; any leakage raises ConsistencyError). The numeric
    determinant is cross-checked against the closed form
    prod_{i<j} d_j / d_i, which does not involve u at all.

    d has shape (n,) or (m, n) and u shape (n, n) or (m, n, n); a single
    pair gives a float, a stack an array of m determinants.
    """
    return _adjoint_det(d, u, lower=False)


def adjoint_det_on_l(d, u=None):
    """det of the projected Ad(b^(-1)) on the strictly lower algebra.

    Conjugation does not preserve the lower algebra, but in the basis
    ordered by distance from the diagonal the projected action is exactly
    triangular (checked), so the determinant is the product of the
    diagonal coefficients: prod_{i>j} d_j / d_i -- again independent of u.
    Together with adjoint_det_on_u the product over both triangles is
    exactly 1: every ratio d_j/d_i meets its reciprocal. Takes stacks as
    adjoint_det_on_u does.
    """
    return _adjoint_det(d, u, lower=True)


# --- planar warm-up: hyperbolic sector --------------------------------------


def hyperbolic_cone_area(a: float, b: float) -> float:
    """Area of {u, v > 0 : uv <= 1, a^2 <= u/v <= b^2}, which is ln(b/a).

    In coordinates s = uv, r = u/v the region is the rectangle
    (0,1] x [a^2, b^2] with density 1/(2r): the s-direction contributes a
    constant and the log comes entirely from the scale variable r, the
    one-dimensional shadow of the cone mechanism. b / a must be a finite double."""
    a = check_real(a, "a", 0, lo_open=True)
    b = check_real(b, "b", a, lo_open=True)
    return math.log(check_real(b / a, "b / a"))


def _rejection_volume(box: float, trials: int, inside) -> MCVolume:
    """Rejection estimate box * accepted / trials. inside(c) draws c points
    of the bounding box and counts those in the region; it is called on
    batches of at most _MC_BATCH points, in order. The box volume must be a
    finite double: past that range every estimate would read nan or inf."""
    trials = check_int(trials, "trials", 1)
    box = check_real(box, "the bounding box volume")
    accepted = sum(
        inside(min(_MC_BATCH, trials - done)) for done in range(0, trials, _MC_BATCH)
    )
    return MCVolume(accepted, trials, box)


def hyperbolic_cone_area_mc(a: float, b: float, rng: RngStream, trials: int) -> MCVolume:
    """Rejection estimate of hyperbolic_cone_area from the bounding box
    (0, b] x (0, 1/a]; uses only the membership inequalities."""
    a = check_real(a, "a", 0, lo_open=True)
    b = check_real(b, "b", a, lo_open=True)

    def inside(c):
        u = b * rng.random(c)
        v = (1.0 / a) * rng.random(c)
        return int(((u * v <= 1.0) & (a * a * v <= u) & (u <= b * b * v)).sum())

    return _rejection_volume(b * (1.0 / a), trials, inside)


# --- the SL_2 cone -----------------------------------------------------------


def sl2_cone_membership(mats, problem: ConeProblem):
    """Boolean mask: which 2x2 matrices lie in the cone over the window.

    g = [[w, p], [q, z]] belongs iff det g = w z - p q is in (0, 1] and
    g / sqrt(det g) has w-part in [1, x] and |p|, |q| <= eps."""
    g = np.asarray(mats, dtype=float)
    if g.shape[-2:] != (2, 2):
        raise DomainError(f"expected (..., 2, 2) matrices, got shape {g.shape}")
    w = g[..., 0, 0]
    p = g[..., 0, 1]
    q = g[..., 1, 0]
    z = g[..., 1, 1]
    det = w * z - p * q
    inside = (det > 0.0) & (det <= 1.0)
    t = np.sqrt(np.where(inside, det, 1.0))
    inside &= (w >= t) & (w <= problem.x * t)
    inside &= np.abs(p) <= problem.eps * t
    inside &= np.abs(q) <= problem.eps * t
    return inside


def sl2_cone_volume(problem: ConeProblem) -> float:
    """Lebesgue volume (in R^4) of the cone: exactly 2 eps^2 ln x.

    Integrating out the determinant slice t and the normalized
    off-diagonal coordinates leaves the invariant measure da/a of the
    window edge, so the volume grows logarithmically in x -- the cone
    analogue of log-uniformity."""
    return 2.0 * problem.eps * problem.eps * math.log(problem.x)


def sl2_cone_volume_mc(problem: ConeProblem, rng: RngStream, trials: int):
    """Rejection estimate of the cone volume from its bounding box, and the
    window edge s = w / sqrt(det g) of each accepted point, in draw order.

    The cone fits in (0, x] x [-eps, eps]^2 x (0, 1 + eps^2] for the
    (w, p, q, z) coordinates; each batch of c points consumes 4c uniforms
    (w, p, q, z in that order). Membership is decided by
    sl2_cone_membership alone -- the analytic formula is never consulted.
    P(s <= t) = vol(cone t) / vol(cone x) for the uniform accepted points.
    """
    x, eps = problem.x, problem.eps
    zmax = 1.0 + eps * eps
    edges = []

    def inside(c):
        g = np.empty((c, 2, 2))
        g[:, 0, 0] = x * rng.random(c)
        g[:, 0, 1] = rng.uniform(-eps, eps, c)
        g[:, 1, 0] = rng.uniform(-eps, eps, c)
        g[:, 1, 1] = zmax * rng.random(c)
        g = g[sl2_cone_membership(g, problem)]
        edges.append(g[:, 0, 0] / np.sqrt(g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]))
        return len(g)

    mc = _rejection_volume(x * (2.0 * eps) ** 2 * zmax, trials, inside)
    return mc, np.concatenate(edges)
